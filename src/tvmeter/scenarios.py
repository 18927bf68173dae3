"""Scenario registry, shared by the library and the ``tv`` CLI: one
frozen :class:`Scenario` per scenario turns a parameter dict in the
CLI's conventions into figures of merit::

    qnd = SCENARIOS["qnd-imperfect"]
    params = with_parameter(qnd.defaults, "nu", 0.1)  # nu in units of gamma
    figs = qnd.figures(params, BathSpec(n_m=1.0), qnd.default_omega(params))

Conventions: rates are in the builder's reference unit (omega_m for the
cavity-optomechanics scenarios, kappa for the levitodynamics ones); for
qnd-imperfect, mu, nu and xi are in units of gamma and delta_c in units
of kappa.  Exactly one of C and g is set where both exist.

``Scenario.array_params`` names the parameters that ``figures`` takes
as arrays (the arrays broadcast), giving one result per point.  Every
scenario with a detection frequency takes every numeric parameter:
``figures`` and ``vc`` solve the points as one stack (an array of kappa
or gamma stacks H as well), at one detection frequency or at frequencies
paired with the points, and ``rows`` builds the stack of a scan's rows
once and scores V_c on the rows it is asked for.  lev-pulsed takes tau,
and evaluates the term algebra of the pulsed kernel once per group of
rows that share its branches.  The builders and kernels are called
through this module's globals, never stored in a record, so that a
wrapper on a module attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .core import BathSpec, LinearModel
from .errors import ConfigError
from .floquet import decompose_drift, floquet_metrics, floquet_vc
from .levitation import (DualTweezerParams, TweezerParams, reduced_metrics, reduced_vc,
                         single_tweezer_qnd_model)
from .metrics import evaluate, vc_on_grid
from .models import (
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    cqnc_model,
    displacement_model,
    imperfect_qnd_model,
)
from .pulsed import PulsedParams, prepare_state_lyapunov, pulsed_metrics


@dataclass(frozen=True)
class Scenario:
    """``figures(params, bath, omega, conditioning)`` gives the figures
    of merit and ``vc`` (as ``figures``) V_c.  ``figures`` takes an array
    for each parameter in ``array_params`` and then gives a list of
    figures, one per point; ``vc`` takes arrays of every numeric parameter
    (and frequencies paired as in :func:`metrics.vc_on_grid`) and gives an
    array.  ``rows(params, bath, conditioning)`` builds the stack of the
    rows of ``params`` once and gives ``vc(ks, omegas)``, sliced from it:
    V_c of the rows in a list ks paired with omegas, or of the row ks (an
    int) at every one of them, as :func:`optimize.minimize_on_grid` asks.
    ``default_omega`` maps the parameters to the detection frequency; None
    means there is none.  ``prepare`` fills in a prepared state that
    depends only on the parameters in ``preparation``."""

    defaults: Mapping[str, Any]
    figures: Callable
    vc: Callable | None = None
    rows: Callable[[dict, BathSpec, str], Callable] | None = None
    array_params: frozenset[str] = frozenset()
    default_omega: Callable[[dict], float] | None = lambda p: 0.0
    conditionings: tuple[str, ...] = ("meter",)
    preparation: tuple[str, ...] = ()
    prepare: Callable[[dict, BathSpec], dict] | None = None

    def __post_init__(self):
        object.__setattr__(self, "defaults", MappingProxyType(dict(self.defaults)))


def with_parameter(params: dict, name: str, value: Any) -> dict:
    """A copy of ``params`` with ``name`` set to ``value``; setting C
    clears g and setting g clears C, so exactly one of them stays set."""
    params = {**params, name: value}
    if name in ("C", "g") and "C" in params:
        params["g" if name == "C" else "C"] = None
    return params


def _displacement(p: dict, bath: BathSpec) -> LinearModel:
    return displacement_model(
        DisplacementParams(p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"]), bath)


def _cqnc(p: dict, bath: BathSpec) -> LinearModel:
    return cqnc_model(CqncParams(p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"]), bath)


def _qnd_imperfect(p: dict, bath: BathSpec) -> LinearModel:
    return imperfect_qnd_model(ImperfectQndParams(
        p["kappa"], p["gamma"], g=p["g"], C=p["C"], delta_c=p["delta_c"] * p["kappa"],
        mu=p["mu"] * p["gamma"], nu=p["nu"] * p["gamma"], xi=p["xi"] * p["gamma"],
    ), bath)


def _lev_single(p: dict, bath: BathSpec) -> LinearModel:
    return single_tweezer_qnd_model(TweezerParams(
        omega_m=p["omega_m"], alpha=p["alpha"], g=p["g"], kappa=p["kappa"],
        gamma=p["gamma"], Omega=p["Omega"],
    ), bath)


def _stacked(defaults: dict, build, figures, vc, point_axes: Mapping[str, int], **kw) -> Scenario:
    """A scenario on the validated stack ``build(params, bath)``, with its
    ``figures(stack, bath, omega, conditioning)`` and V_c ``vc`` (alike);
    ``point_axes`` maps the stack's fields to the axes of one entry."""

    def rows(p, bath, conditioning="meter"):
        stack = build(p, bath)
        stacked = {k: getattr(stack, k) for k, axes in point_axes.items()
                   if np.ndim(getattr(stack, k)) > axes}

        def vc_rows(ks, omegas):
            part = object.__new__(type(stack))  # the rows ks of the validated stack
            vars(part).update(vars(stack), **{k: v[ks] for k, v in stacked.items()})
            return vc(part, bath, np.asarray(omegas), conditioning)

        return vc_rows

    numeric = frozenset(k for k, v in defaults.items() if not isinstance(v, str))  # None: unset
    return Scenario(defaults, lambda p, bath, w, c="meter": figures(build(p, bath), bath, w, c),
                    vc=lambda p, bath, w, c="meter": vc(build(p, bath), bath, w, c),
                    rows=rows, array_params=numeric, **kw)


def _model_based(defaults: dict, build, **kw) -> Scenario:
    """A scenario evaluated on the model ``build(params, bath)``."""
    return _stacked(defaults, build, lambda m, bath, w, c: evaluate(m, w, bath, c),
                    lambda m, bath, w, c: vc_on_grid(m, w, bath, c), dict(A=2, H=2), **kw)


def _floquet_drift(p: dict, bath: BathSpec):
    return decompose_drift(p["kappa"], p["gamma"], p["omega_m"], g=p["g"], C=p["C"],
                           order=p["order"])


_FLOQUET = dict(kappa=0.5, gamma=0.01, omega_m=1.0, C=1.0, g=None, order=1)

_DUAL = dict(kappa1=1.0, kappa2=1.0, gamma=1e-9, omega_m=100.0, g1=0.2, g2=0.2,
             alpha1=0.2, alpha2=0.2, g_total=None, readout_fraction=None)


def _dual(p: dict, bath: BathSpec) -> DualTweezerParams:
    """lev-dual couples through g1 and g2, or through g_total and
    readout_fraction, which replace them (g1 and g2 stay at defaults)."""
    rates = dict(omega_m=p["omega_m"], gamma=p["gamma"], kappa_1=p["kappa1"],
                 kappa_2=p["kappa2"], alpha_1=p["alpha1"], alpha_2=p["alpha2"])
    g_total, fraction = p["g_total"], p["readout_fraction"]
    if g_total is None and fraction is None:
        return DualTweezerParams(g_1=p["g1"], g_2=p["g2"], **rates)
    if g_total is None or fraction is None:
        raise ConfigError("scenario 'lev-dual' needs both of 'g_total' and 'readout_fraction'")
    if np.any(p["g1"] != _DUAL["g1"]) or np.any(p["g2"] != _DUAL["g2"]):
        raise ConfigError("'g1' and 'g2' cannot be set with 'g_total' and 'readout_fraction'")
    return DualTweezerParams.from_intensity_split(g_total, fraction, **rates)


def _pulsed_prepared(p: dict, bath: BathSpec) -> dict:
    """``p`` with V0 set: as given, else the preparation stage's steady state."""
    if p["V0"] is not None:
        return p
    V0, _ = prepare_state_lyapunov(p["kappa"], p["gamma"], p["g_prep"], p["alpha_prep"], bath)
    return {**p, "V0": V0}


def _pulsed_figures(p, bath, omega=None, conditioning="meter"):
    q = PulsedParams(kappa=p["kappa"], gamma=p["gamma"], omega_m=p["omega_m"], g=p["g"],
                     alpha2=p["alpha"], V0=_pulsed_prepared(p, bath)["V0"], bath=bath)
    return pulsed_metrics(q, p["tau"], pulse_shape=p["pulse_shape"])


SCENARIOS: dict[str, Scenario] = {
    "displacement": _model_based(
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None), _displacement,
        default_omega=lambda p: p["omega_m"]),
    "cqnc": _model_based(
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None), _cqnc,
        default_omega=lambda p: p["omega_m"], conditionings=("meter", "meter+ancilla")),
    "qnd-ideal": _model_based(dict(kappa=10.0, gamma=0.01, C=1.0, g=None),
                              lambda p, bath: _displacement({**p, "omega_m": 0.0}, bath)),
    "qnd-imperfect": _model_based(
        dict(kappa=10.0, gamma=0.01, C=1.0, g=None, nu=0.0, mu=0.0, xi=0.0, delta_c=0.0),
        _qnd_imperfect),
    "qnd-floquet": _stacked(
        _FLOQUET, _floquet_drift, lambda fd, bath, w, c: floquet_metrics(fd, bath, w),
        lambda fd, bath, w, c: floquet_vc(fd, bath, w),
        dict(A_minus=2, A_zero=2, A_plus=2, omega_m=0)),
    "lev-single": _model_based(
        dict(kappa=1.0, gamma=1e-6, omega_m=100.0, g=0.3, alpha=0.2, Omega=None), _lev_single),
    "lev-dual": _stacked(
        _DUAL, _dual, lambda d, bath, w, c: reduced_metrics(d, bath, w),
        lambda d, bath, w, c: reduced_vc(d, bath, w),
        dict.fromkeys(DualTweezerParams.__dataclass_fields__, 0)),
    "lev-pulsed": Scenario(
        dict(kappa=1.0, gamma=1e-9, omega_m=100.0, g_prep=0.6, alpha_prep=0.2, g=0.6,
             alpha=0.6, tau=1.0, V0=None, pulse_shape="matched"),
        _pulsed_figures, default_omega=None, array_params=frozenset({"tau"}),
        preparation=("kappa", "gamma", "g_prep", "alpha_prep", "V0"), prepare=_pulsed_prepared),
}
