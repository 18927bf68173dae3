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
import sys
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import __version__
from .core import BathSpec, LinearModel
from .errors import TvmeterError
from .floquet import FloquetDrift, decompose_drift, floquet_metrics, floquet_vc
from .levitation import DualTweezerParams, TweezerParams, reduced_metrics, single_tweezer_qnd_model
from .metrics import MeasurementFigures, evaluate, vc_on_grid, with_detection_loss
from .models import (
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    cqnc_model,
    displacement_model,
    imperfect_qnd_model,
)
from .optimize import ScanMinimum, find_threshold, generalized_sql, minimize_vc_over_frequency
from .pulsed import PulsedParams, prepare_state_lyapunov, pulsed_metrics


class ConfigError(Exception):
    """Invalid run configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# scenario catalog
#
# Parameter conventions: rates are in the builder's reference unit
# (omega_m for the cavity-optomechanics scenarios, kappa for the
# levitodynamics ones); for qnd-imperfect, mu/nu/xi are in units of
# gamma and delta_c in units of kappa, matching how the sweeps are
# quoted.  Exactly one of C and g must be set where both exist.

SCENARIOS: dict[str, dict[str, Any]] = {
    "displacement": dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None),
    "cqnc": dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None),
    "qnd-ideal": dict(kappa=10.0, gamma=0.01, C=1.0, g=None),
    "qnd-imperfect": dict(
        kappa=10.0, gamma=0.01, C=1.0, g=None, nu=0.0, mu=0.0, xi=0.0, delta_c=0.0
    ),
    "qnd-floquet": dict(kappa=0.5, gamma=0.01, omega_m=1.0, C=1.0, g=None, order=1),
    "lev-single": dict(
        kappa=1.0, gamma=1e-6, omega_m=100.0, g=0.3, alpha=0.2, Omega=None
    ),
    "lev-dual": dict(
        kappa1=1.0, kappa2=1.0, gamma=1e-9, omega_m=100.0,
        g1=0.2, g2=0.2, alpha1=0.2, alpha2=0.2,
        g_total=None, readout_fraction=None,
    ),
    "lev-pulsed": dict(
        kappa=1.0, gamma=1e-9, omega_m=100.0,
        g_prep=0.6, alpha_prep=0.2, g=0.6, alpha=0.6,
        tau=1.0, V0=None, pulse_shape="matched",
    ),
}

#: lev-pulsed parameters that feed the preparation stage; a sweep over
#: any other parameter prepares V0 once for all its rows
PREPARATION_PARAMS = ("kappa", "gamma", "g_prep", "alpha_prep")

DEFAULT_OMEGA = {
    "displacement": lambda p: p["omega_m"],
    "cqnc": lambda p: p["omega_m"],
}

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
    params = dict(SCENARIOS[scenario])
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

    conditioning = doc.get("conditioning", "meter")
    if getattr(args, "conditioning", None) is not None:
        conditioning = args.conditioning
    if conditioning not in ("meter", "meter+ancilla"):
        raise ConfigError(f"unknown key {conditioning!r} in conditioning")
    if conditioning != "meter" and scenario != "cqnc":
        raise ConfigError("conditioning 'meter+ancilla' applies to the cqnc scenario only")

    out = doc.get("output", {})
    _check_keys(out, OUTPUT_KEYS, "output")
    out_path = getattr(args, "output", None) or out.get("path")
    out_format = getattr(args, "format", None) or out.get("format") or "csv"
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown key {out_format!r} in output format")
    return RunConfig(
        scenario=scenario, parameters=params, bath=bath, sweep=sweep,
        omega=omega, optimize_frequency=optimize,
        omega_bounds=(float(bounds[0]), float(bounds[1])),
        conditioning=conditioning, out_path=out_path, out_format=out_format,
    )


# ---------------------------------------------------------------------------
# evaluation


def _prepared_v0(params: dict, bath: BathSpec) -> float:
    """The lev-pulsed prepared x variance: ``V0`` when given, else the
    steady state of the preparation stage."""
    if params["V0"] is not None:
        return params["V0"]
    V0, _ = prepare_state_lyapunov(
        params["kappa"], params["gamma"], params["g_prep"], params["alpha_prep"], bath,
    )
    return V0


def _lev_pulsed_point(params: dict, bath: BathSpec) -> MeasurementFigures:
    p = PulsedParams(
        kappa=params["kappa"], gamma=params["gamma"], omega_m=params["omega_m"],
        g=params["g"], alpha2=params["alpha"], V0=_prepared_v0(params, bath), bath=bath,
    )
    return pulsed_metrics(p, params["tau"], pulse_shape=params["pulse_shape"])


def _scenario_model(scenario: str, params: dict, bath: BathSpec) -> LinearModel | None:
    """The validated model a model-based scenario is evaluated on; None
    for the scenarios with kernels of their own (qnd-floquet, lev-dual,
    lev-pulsed)."""
    if scenario == "displacement":
        return displacement_model(
            DisplacementParams(params["kappa"], params["gamma"], params["omega_m"],
                               g=params["g"], C=params["C"]), bath)
    if scenario == "cqnc":
        return cqnc_model(
            CqncParams(params["kappa"], params["gamma"], params["omega_m"],
                       g=params["g"], C=params["C"]), bath)
    if scenario == "qnd-ideal":
        return displacement_model(
            DisplacementParams(params["kappa"], params["gamma"], 0.0,
                               g=params["g"], C=params["C"]), bath)
    if scenario == "qnd-imperfect":
        p = ImperfectQndParams(
            params["kappa"], params["gamma"], g=params["g"], C=params["C"],
            delta_c=params["delta_c"] * params["kappa"],
            mu=params["mu"] * params["gamma"],
            nu=params["nu"] * params["gamma"],
            xi=params["xi"] * params["gamma"],
        )
        return imperfect_qnd_model(p, bath)
    if scenario == "lev-single":
        p = TweezerParams(
            omega_m=params["omega_m"], alpha=params["alpha"], g=params["g"],
            kappa=params["kappa"], gamma=params["gamma"], Omega=params["Omega"],
        )
        return single_tweezer_qnd_model(p, bath)
    return None


def _floquet_drift(params: dict) -> FloquetDrift:
    return decompose_drift(
        params["kappa"], params["gamma"], params["omega_m"],
        g=params["g"], C=params["C"], order=params["order"],
    )


def _model_conditioning(scenario: str, conditioning: str) -> str:
    """Only the cqnc model has an ancilla to condition on."""
    return conditioning if scenario == "cqnc" else "meter"


def scenario_figures(
    scenario: str, params: dict, bath: BathSpec, omega: float, conditioning: str
) -> MeasurementFigures:
    """Figures of merit of one scenario at one detection frequency."""
    model = _scenario_model(scenario, params, bath)
    if model is not None:
        return evaluate(model, omega, bath=bath,
                        conditioning=_model_conditioning(scenario, conditioning))
    if scenario == "qnd-floquet":
        return floquet_metrics(_floquet_drift(params), bath, omega)
    if scenario == "lev-dual":
        if bath.eta < 1.0:
            raise ConfigError(
                f"scenario 'lev-dual' does not model detection loss; eta must be 1, got {bath.eta}"
            )
        rates = dict(
            omega_m=params["omega_m"], gamma=params["gamma"],
            kappa_1=params["kappa1"], kappa_2=params["kappa2"],
            alpha_1=params["alpha1"], alpha_2=params["alpha2"],
        )
        if params["g_total"] is not None and params["readout_fraction"] is not None:
            p = DualTweezerParams.from_intensity_split(
                params["g_total"], params["readout_fraction"], **rates
            )
        else:
            p = DualTweezerParams(g_1=params["g1"], g_2=params["g2"], **rates)
        return reduced_metrics(p, bath, omega)
    if scenario == "lev-pulsed":
        return _lev_pulsed_point(params, bath)
    raise ConfigError(f"unknown scenario {scenario!r}")


def _default_omega(cfg: RunConfig) -> float:
    if cfg.omega is not None:
        return cfg.omega
    return DEFAULT_OMEGA.get(cfg.scenario, lambda p: 0.0)(cfg.parameters)


def _frequency_scans(cfg: RunConfig, rows: list[dict], bath: BathSpec) -> list[ScanMinimum]:
    """Detection frequency minimizing V_c at each of several parameter
    points (the rows of a sweep), with the figures of merit there.

    A model-based scenario builds and validates each row's model once and
    scans its frequency grid with one stacked solve.  Rows whose models
    share everything but the drift (any C or g sweep) are refined
    together: each golden-section round of all of them is one solve over
    the stack of their drift matrices, paired with the round's
    frequencies.  Other rows are refined one by one, and the scenarios
    without a model frequency by frequency.  The figures of each optimum
    come from :func:`scenario_figures`.
    """
    lo, hi = cfg.omega_bounds

    def figures(r: int, w: float) -> MeasurementFigures:
        return scenario_figures(cfg.scenario, rows[r], bath, w, cfg.conditioning)

    models = [_scenario_model(cfg.scenario, params, bath) for params in rows]
    if models[0] is None:
        return minimize_vc_over_frequency(figures, lo, hi, rows=len(rows))
    models = [with_detection_loss(model, bath) for model in models]
    batches = [list(range(len(rows)))] if _drift_only(models) else [[r] for r in range(len(rows))]
    return [scan for batch in batches for scan in _refined_batch(cfg, models, batch, figures)]


def _drift_only(models: list[LinearModel]) -> bool:
    """Whether the models differ in their drift matrices only, to the bit
    (a drift stack then gives every model's own bits)."""
    first = models[0]
    return all(
        m.layout == first.layout
        and (m.detection_eta, m.ancilla_variance) == (first.detection_eta, first.ancilla_variance)
        and m.H.tobytes() == first.H.tobytes()
        and m.Vin.tobytes() == first.Vin.tobytes()
        for m in models[1:]
    )


def _refined_batch(cfg: RunConfig, models: list[LinearModel], batch: list[int], figures):
    """Frequency scans of the rows ``batch``, refined in lockstep on the
    stack of their drift matrices."""
    conditioning = _model_conditioning(cfg.scenario, cfg.conditioning)
    if len(batch) == 1:  # its own model at a frequency stack: no model per round
        model = models[batch[0]]
        round_model = lambda ks: model
    else:
        stack = replace(models[batch[0]], A=np.stack([models[r].A for r in batch]))
        round_model = lambda ks: replace(stack, A=stack.A[ks])

    def vc(ks: list[int], ws: list[float]):
        return vc_on_grid(round_model(ks), np.asarray(ws), conditioning=conditioning)

    return minimize_vc_over_frequency(
        lambda k, w: figures(batch[k], w), *cfg.omega_bounds, rows=len(batch), vc=vc,
        vc_grid=lambda ws: [vc_on_grid(models[r], ws, conditioning=conditioning) for r in batch],
    )


def _point_figures_with(cfg: RunConfig, params: dict, bath: BathSpec) -> MeasurementFigures:
    """Figures of one row, at the optimal detection frequency with
    ``optimize_frequency``; they always come from :func:`scenario_figures`."""
    if cfg.optimize_frequency:
        return _frequency_scans(cfg, [params], bath)[0].figures
    return scenario_figures(cfg.scenario, params, bath, _default_omega(cfg), cfg.conditioning)


def _point_figures(cfg: RunConfig, params: dict) -> MeasurementFigures:
    return _point_figures_with(cfg, params, cfg.bath_spec())


def _check_has_cooperativity(cfg: RunConfig) -> None:
    if "C" not in cfg.parameters:
        raise ConfigError(
            f"scenario {cfg.scenario!r} has no cooperativity 'C' to scan"
        )


def _sql_scan(
    cfg: RunConfig, params: dict, bath: BathSpec,
    c_bounds: tuple[float, float], c_count: int,
) -> ScanMinimum:
    """Generalized SQL at one parameter point: V_c minimized over C.

    At a fixed detection frequency the C grid is one stacked solve over
    the models at every C; with ``optimize_frequency`` every C needs its
    own frequency scan, so the grid is scanned point by point.  The
    refinement and the figures of the optimum come from
    :func:`_point_figures_with`.
    """

    def at(C):
        return {**params, "C": C, "g": None}

    def vc_grid(Cs):
        omega = _default_omega(cfg)
        if cfg.scenario == "qnd-floquet":
            return floquet_vc(_floquet_drift(at(Cs)), bath, omega)
        return vc_on_grid(
            _scenario_model(cfg.scenario, at(Cs), bath), omega, bath=bath,
            conditioning=_model_conditioning(cfg.scenario, cfg.conditioning),
        )

    return generalized_sql(
        lambda C: _point_figures_with(cfg, at(C), bath), c_bounds[0], c_bounds[1],
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
    if cfg.out_format == "json":
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
        raise ConfigError(
            f"unknown key {name!r} in sweep param for scenario {cfg.scenario!r}"
        )
    params = dict(cfg.parameters)
    params[name] = value
    if name == "C":
        params["g"] = None
    if name == "g" and "C" in params:
        params["C"] = None
    return params


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    if cfg.sweep is None:
        raise ConfigError("sweep is missing key(s) ['param', 'lo', 'hi', 'n']")
    name = cfg.sweep["param"]
    values = _sweep_values(cfg)
    rows_cfg = cfg
    shared_v0 = name in cfg.parameters and name not in (*PREPARATION_PARAMS, "V0")
    if cfg.scenario == "lev-pulsed" and shared_v0:
        try:
            V0 = _prepared_v0(cfg.parameters, cfg.bath_spec())
        except TvmeterError as err:
            raise NumericalFailure(name, values[0], err) from err
        rows_cfg = replace(cfg, parameters={**cfg.parameters, "V0": V0})

    def one(value: float) -> dict:
        try:
            figs = _point_figures(rows_cfg, _swept_params(rows_cfg, value))
        except TvmeterError as err:
            raise NumericalFailure(name, value, err) from err
        return _figures_row(name, value, figs)

    if cfg.optimize_frequency:
        try:
            scans = _frequency_scans(
                rows_cfg, [_swept_params(rows_cfg, value) for value in values], rows_cfg.bath_spec()
            )
        except (TvmeterError, ValueError, ConfigError):
            pass  # rerun the rows one at a time: the first failing row raises its own error
        else:
            return [_figures_row(name, value, scan.figures) for value, scan in zip(values, scans)]
    return [one(value) for value in values]


def cmd_sql(cfg: RunConfig, c_bounds: tuple[float, float], c_count: int) -> list[dict]:
    _check_has_cooperativity(cfg)
    bath = cfg.bath_spec()

    def run_one(params: dict) -> dict:
        res = _sql_scan(cfg, params, bath, c_bounds, c_count)
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
    bath = cfg.bath_spec()
    if vary not in cfg.parameters and vary not in cfg.bath:
        raise ConfigError(f"unknown key {vary!r} in threshold vary")
    if quantity != "vc":
        _check_has_cooperativity(cfg)

    def with_value(value: float) -> tuple[dict, BathSpec]:
        params = dict(cfg.parameters)
        b = bath
        if vary in params:
            params[vary] = value
        else:
            bd = dict(cfg.bath)
            bd[vary] = value
            b = replace(cfg, bath=bd).bath_spec()
        return params, b

    def curve(value: float) -> float:
        params, b = with_value(value)
        if quantity == "vc":
            return _point_figures_with(cfg, params, b).Vc
        res = _sql_scan(cfg, params, b, c_bounds, c_count)
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
    try:
        res = _frequency_scans(cfg, [cfg.parameters], cfg.bath_spec())[0]
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
    for key in scenario
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
