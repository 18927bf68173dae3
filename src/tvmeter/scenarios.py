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

``figures`` takes an array of any numeric parameter (the arrays
broadcast), giving one result per point.  Every scenario with a
detection frequency solves the points as one stack in ``figures`` and
``vc`` (an array of kappa or gamma stacks H as well), at one detection
frequency or at frequencies paired with the points, and ``rows`` builds
the stack of a scan's rows once and scores V_c on the rows it is asked
for.  ``c_family``, its counterpart for scans over C at a fixed
frequency, builds and validates the rows once at g = 0; each V_c call
then writes only the coupling into the drift entries the builder
declares (``models._READOUT_COUPLING``, ``models._CQNC_COUPLING``; the
sidebands as well for qnd-floquet), and checks stability again only
where the drift's spectrum can depend on C.  lev-pulsed prepares the
state once per distinct preparation and evaluates the term algebra of
the pulsed kernel once per group of rows that share kappa, gamma and
its branches.  The builders and kernels are
called through this module's globals, never stored in a record, so that
a wrapper on a module attribute sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .core import BathSpec, LinearModel, _spectrum_depends_on, check_stable
from .errors import ConfigError, TvmeterError
from .floquet import _SIDEBAND_COUPLING, decompose_drift, floquet_metrics, floquet_vc
from .levitation import (DualTweezerParams, TweezerParams, reduced_metrics, reduced_vc,
                         single_tweezer_qnd_model)
from .metrics import evaluate, vc_on_grid
from .models import (
    _CQNC_COUPLING,
    _READOUT_COUPLING,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    _coupled,
    _resolve_coupling,
    cqnc_model,
    displacement_model,
    imperfect_qnd_model,
)
from .pulsed import PulsedParams, prepare_state_lyapunov, pulsed_metrics


@dataclass(frozen=True)
class Scenario:
    """``figures(params, bath, omega, conditioning)`` gives the figures
    of merit and ``vc`` (as ``figures``) V_c.  Both take arrays of every
    numeric parameter (and frequencies paired as in
    :func:`metrics.vc_on_grid`); ``figures`` then gives a list of figures,
    one per point, and ``vc`` an array.  ``rows(params, bath,
    conditioning)`` builds the stack of the rows of ``params`` once and
    gives ``vc(ks, omegas)``, sliced from it: V_c of the rows in a list ks
    paired with omegas, of the row ks (an int) at every one of them, or of
    each row ks[k] at every omegas[k] (a 2-d array), as
    :func:`optimize.minimize_on_grid` asks.  ``c_family(params, bath,
    omega, conditioning)``, set where there is a cooperativity, builds the
    rows of ``params`` once, at g = 0, and gives ``vc(ks, Cs)``: V_c at the
    detection frequency ``omega`` (a number, or an array of one per row)
    of the row ks (an int) at every C of Cs, or of the rows in a list ks
    paired with Cs, each point with the bits and the errors of ``vc`` on
    a model built at its C.  ``default_omega`` maps the
    parameters to the detection frequency; None means there is none.
    ``prepare`` fills in a prepared state that depends only on the
    parameters in ``preparation``."""

    defaults: Mapping[str, Any]
    figures: Callable
    vc: Callable | None = None
    rows: Callable[[dict, BathSpec, str], Callable] | None = None
    c_family: Callable[[dict, BathSpec, Any, str], Callable] | None = None
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


def _rows_at(stack, point_axes: Mapping[str, int]) -> Callable:
    """``at(ks)``: the rows ks of the validated ``stack``, whose fields with
    more axes than one point's (``point_axes``) hold one entry per row."""
    stacked = {k: getattr(stack, k) for k, axes in point_axes.items()
               if np.ndim(getattr(stack, k)) > axes}

    def at(ks):
        part = object.__new__(type(stack))
        vars(part).update(vars(stack), **{k: v[ks] for k, v in stacked.items()})
        return part

    return at


def _picked(value: Any, ks) -> Any:
    """A parameter or frequency at the rows ks: an array holds one per row."""
    return value[ks] if isinstance(value, np.ndarray) else value


def _stacked(defaults: dict, build, figures, vc, point_axes: Mapping[str, int],
             couple: Callable | None = None, **kw) -> Scenario:
    """A scenario on the validated stack ``build(params, bath)``, with its
    ``figures(stack, bath, omega, conditioning)`` and V_c ``vc`` (alike);
    ``point_axes`` maps the stack's fields to the axes of one entry.  With
    a cooperativity, ``couple(stack)`` gives ``write(part, g)``, which
    writes the coupling g into the rows ``part`` of a stack built at g = 0
    (:func:`_coupling`), and the scenario has a ``c_family``."""

    def rows(p, bath, conditioning="meter"):
        at = _rows_at(build(p, bath), point_axes)

        def vc_rows(ks, omegas):
            omegas = np.asarray(omegas)
            if omegas.ndim == 2:  # a grid per row: the rows on their own axis
                ks = np.array(ks)[:, None]
            return vc(at(ks), bath, omegas, conditioning)

        return vc_rows

    def c_family(p, bath, omega, conditioning="meter"):
        def built(ks, Cs):  # a model of its own per call, as ``Scenario.vc``
            rows_ks = {k: _picked(v, ks) for k, v in p.items()}
            return vc(build(with_parameter(rows_ks, "C", np.asarray(Cs)), bath), bath,
                      _picked(omega, ks), conditioning)

        try:
            stack = build(with_parameter(p, "g", 0.0), bath)
        except (TvmeterError, ValueError):  # each call raises (or passes) as its own build
            return built
        at, write = _rows_at(stack, point_axes), couple(stack)

        def vc_c(ks, Cs):
            g = _resolve_coupling(_picked(p["kappa"], ks), _picked(p["gamma"], ks), None,
                                  np.asarray(Cs))  # the check C >= 0 of each build
            return vc(write(at(ks), g), bath, _picked(omega, ks), conditioning)

        return vc_c

    return Scenario(defaults, lambda p, bath, w, c="meter": figures(build(p, bath), bath, w, c),
                    vc=lambda p, bath, w, c="meter": vc(build(p, bath), bath, w, c),
                    rows=rows, c_family=c_family if couple else None, **kw)


def _coupling(entries: tuple, drift: str = "A") -> Callable:
    """``couple`` of a scenario whose drift (the stack's field ``drift``)
    holds c = -2g at ``entries``, its builder's declaration: each call
    writes c there, into a copy of the rows' drift.  Where the spectrum
    can depend on c (an entry inside a diagonal block of the drift, as in
    the detuned imperfect readout's loop X -> p -> x -> Y -> X) each call
    checks stability.  Elsewhere the build's check at g = 0 holds at every
    finite c, and a point whose c is not finite fails as in
    :func:`core.check_stable`."""

    def couple(stack):
        per_call = _spectrum_depends_on(getattr(stack, drift), entries)

        def write(part, g):
            vars(part)[drift] = A = _coupled(getattr(part, drift), -2 * g, entries)
            if per_call or not np.isfinite(g).all():
                check_stable(A)
            return part

        return write

    return couple


def _floquet_coupling(stack) -> Callable:
    """``couple`` of qnd-floquet: c = -2g in A(0), as :func:`_coupling`,
    and the counterrotating sidebands A(-1) = g ``_SIDEBAND_COUPLING`` and
    A(+1), its conjugate."""
    static = _coupling(_READOUT_COUPLING, "A_zero")(stack)

    def write(part, g):
        part = static(part, g)
        A_minus = np.multiply.outer(np.broadcast_to(g, part.A_zero.shape[:-2]), _SIDEBAND_COUPLING)
        vars(part).update(A_minus=A_minus, A_plus=A_minus.conj())
        return part

    return write


def _model_based(defaults: dict, build, coupling: tuple | None = None, **kw) -> Scenario:
    """A scenario evaluated on the model ``build(params, bath)``, whose
    drift holds the coupling at the entries ``coupling``, if any."""
    return _stacked(defaults, build, lambda m, bath, w, c: evaluate(m, w, bath, c),
                    lambda m, bath, w, c: vc_on_grid(m, w, bath, c), dict(A=2, H=2),
                    couple=coupling and _coupling(coupling), **kw)


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


_PREPARATION = ("kappa", "gamma", "g_prep", "alpha_prep")


def _pulsed_prepared(p: dict, bath: BathSpec) -> dict:
    """``p`` with V0 set: as given, else the preparation stage's steady
    state, solved once per distinct preparation among the rows of ``p``."""
    if p["V0"] is not None:
        return p
    prep = np.broadcast_arrays(*(np.asarray(p[k], dtype=float) for k in _PREPARATION))
    rows = list(zip(*(np.ravel(v).tolist() for v in prep)))
    solved = {row: prepare_state_lyapunov(*row, bath)[0] for row in dict.fromkeys(rows)}
    V0 = np.reshape([solved[row] for row in rows], prep[0].shape)
    return {**p, "V0": V0 if V0.ndim else V0.item()}


def _pulsed_figures(p, bath, omega=None, conditioning="meter"):
    q = PulsedParams(kappa=p["kappa"], gamma=p["gamma"], omega_m=p["omega_m"], g=p["g"],
                     alpha2=p["alpha"], V0=_pulsed_prepared(p, bath)["V0"], bath=bath)
    return pulsed_metrics(q, p["tau"], pulse_shape=p["pulse_shape"])


SCENARIOS: dict[str, Scenario] = {
    "displacement": _model_based(
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None), _displacement,
        _READOUT_COUPLING, default_omega=lambda p: p["omega_m"]),
    "cqnc": _model_based(
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0, g=None), _cqnc, _CQNC_COUPLING,
        default_omega=lambda p: p["omega_m"], conditionings=("meter", "meter+ancilla")),
    "qnd-ideal": _model_based(dict(kappa=10.0, gamma=0.01, C=1.0, g=None),
                              lambda p, bath: _displacement({**p, "omega_m": 0.0}, bath),
                              _READOUT_COUPLING),
    "qnd-imperfect": _model_based(
        dict(kappa=10.0, gamma=0.01, C=1.0, g=None, nu=0.0, mu=0.0, xi=0.0, delta_c=0.0),
        _qnd_imperfect, _READOUT_COUPLING),
    "qnd-floquet": _stacked(
        _FLOQUET, _floquet_drift, lambda fd, bath, w, c: floquet_metrics(fd, bath, w),
        lambda fd, bath, w, c: floquet_vc(fd, bath, w),
        dict(A_minus=2, A_zero=2, A_plus=2, omega_m=0), couple=_floquet_coupling),
    "lev-single": _model_based(
        dict(kappa=1.0, gamma=1e-6, omega_m=100.0, g=0.3, alpha=0.2, Omega=None), _lev_single),
    "lev-dual": _stacked(
        _DUAL, _dual, lambda d, bath, w, c: reduced_metrics(d, bath, w),
        lambda d, bath, w, c: reduced_vc(d, bath, w),
        dict.fromkeys(DualTweezerParams.__dataclass_fields__, 0)),
    "lev-pulsed": Scenario(
        dict(kappa=1.0, gamma=1e-9, omega_m=100.0, g_prep=0.6, alpha_prep=0.2, g=0.6,
             alpha=0.6, tau=1.0, V0=None, pulse_shape="matched"),
        _pulsed_figures, default_omega=None, preparation=(*_PREPARATION, "V0"),
        prepare=_pulsed_prepared),
}
