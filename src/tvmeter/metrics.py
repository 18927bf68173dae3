"""QND figures of merit and measurement-regime classification.

The three quantifiers are the conditional mechanical variance

    V_c = V_out[x,x] - |V_out[x,Y]|^2 / V_out[Y,Y],

where V_out = S V_in S^dagger is the Hermitian cross-spectral density of
the outputs at the detection frequency: V_out[x,Y] is the complex
cross-spectrum of the signal and the measured quadrature, so V_c
conditions on the whole record at that frequency.  Its real part would
condition on one sideband quadrature only and depend on a detector delay
(a phase on the Y row of S); at w = 0 the two coincide.  With the
ancilla channel a the Hermitian Schur complement adds the cross term
2 Re(V_sm V_ma V_sa*).  The signal/meter transfer coefficients
T = V_x / (V_x + n_eq) read only the real diagonal; they are built from
the measurement-equivalent input noises

    n_s_eq = V_out[x,x] / |S_xx|^2 - V_x,
    n_m_eq = V_out[Y,Y] / |S_Yx|^2 - V_x.

The linear models here, the beyond-RWA harmonic solver and the reduced
dual-tweezer map go through one pipeline, :func:`_from_scattering`.  It
takes the rows of S that the figures read (signal, meter and, when
conditioning on it, ancilla) entries first, ``R[i, j, ...]``, and forms
their density with the code of :func:`core.cross_spectral_density`:
elementwise sums, so each entry is one contiguous array over the stack
and each point has the bits of its one-point call (sideband blocks add
incoherently).  It applies detection loss with :func:`core.detected` (a
beam splitter on the measured output mode, which also scales the meter
power gain |S_Yx|^2 by eta), conditions through
:func:`conditional_variance` and reduces through
:func:`measured_figures`, on Python floats.  The pulsed readout, with no
scattering map, shares the guards and :func:`measured_figures`.  Each
kernel takes a stack of points ``[...]``; one point is a stack of shape
() and takes the same code.

A measurement is QND when V_c < 1/2 and T_s + T_m > 1 simultaneously.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .core import (
    CQNC_LAYOUT,
    BathSpec,
    LinearModel,
    ModeLayout,
    _output_density,
    _rows_of,
    build_scattering,
    check_paired,
    detected,
    raise_first,
)
from .errors import DegenerateMeter, SingularAtFrequency

#: meter variances at or below this count as a missing noise channel
METER_FLOOR = 1e-14

#: signal amplitudes at or below this (power gains at or below its
#: square) make the corresponding transfer zero
SIGNAL_PATH_FLOOR = 1e-14

#: negative conditional variances above -this are clamped to zero
VC_CLAMP_TOL = 1e-12


class Regime(enum.Enum):
    CLASSICAL = "Classical"
    IDT = "IDT"
    QSP = "QSP"
    QND = "QND"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MeasurementFigures:
    """Figures of merit of one measurement at one detection frequency."""

    Vc: float
    Ts: float
    Tm: float
    ns_eq: float
    nm_eq: float
    regime: Regime
    omega: float

    @property
    def t_sum(self) -> float:
        return self.Ts + self.Tm


#: the regimes by quadrant index 2 [V_c < 1/2] + [T_s + T_m > 1]
_QUADRANTS = (Regime.CLASSICAL, Regime.IDT, Regime.QSP, Regime.QND)


def classify_regime(Vc: float, Ts: float, Tm: float) -> Regime | list[Regime]:
    """TV-diagram quadrant for the given figures (a list of them, one per
    point in order, for float64 arrays).

    QND requires the strict inequalities V_c < 1/2 and T_s + T_m > 1;
    ties go to the non-QND side.
    """
    quadrant = 2 * (Vc < 0.5) + (Ts + Tm > 1.0)
    if isinstance(quadrant, np.ndarray):
        return list(map(_QUADRANTS.__getitem__, quadrant.ravel().tolist()))
    return _QUADRANTS[quadrant]


def _clamped(Vc, Vss, *guards) -> NDArray[np.float64]:
    """V_c at each point of a stack (one point is a stack of shape ()),
    with rounding below zero clamped to zero.  ``guards`` are the pairs of
    :func:`core.raise_first` that a point checks before its V_c; V_c below
    ``-VC_CLAMP_TOL * max(V_ss, 1)``, then a NaN or +inf V_c (an overflow
    in the density, say), fail last, as a :class:`DegenerateMeter`."""
    below = (Vc < -VC_CLAMP_TOL * np.maximum(Vss, 1.0), lambda k: DegenerateMeter(
        f"conditional variance {np.ravel(Vc)[k]:.3e} below zero"))
    not_finite = (np.logical_not(Vc < np.inf), lambda k: DegenerateMeter(
        f"conditional variance {np.ravel(Vc)[k]:.3e} is not finite"))
    raise_first(*guards, below, not_finite)
    return np.maximum(Vc, 0.0)


def conditional_variance(
    Vout: NDArray,
    layout: ModeLayout | None = None,
    signal: int | None = None,
    meter: int | None = None,
) -> float | NDArray[np.float64]:
    """Mechanical variance conditioned on the measured meter quadrature.

    ``Vout`` is the Hermitian cross-spectral density (a real symmetric
    covariance is accepted as well), or a stack of them ``[..., i, j]``.
    """
    s = signal if signal is not None else (layout.signal_index if layout else 2)
    m = meter if meter is not None else (layout.meter_index if layout else 1)
    return _conditioned(Vout, s, m)


def _conditioned(Vout: NDArray, s: int, m: int, a: int | None = None, simplified: bool = False):
    """V_c of the density ``Vout`` for the signal ``s`` conditioned on the
    meter ``m``, and with an ancilla ``a`` on both: the Schur complement on
    the (meter, ancilla) block, or with ``simplified`` the sum of the two
    channels' terms, dropping the meter-ancilla cross covariance."""
    Vss, Vmm, Vsm = Vout[..., s, s].real, Vout[..., m, m].real, Vout[..., s, m]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if a is None:
            return _clamped(Vss - (Vsm.real**2 + Vsm.imag**2) / Vmm, Vss, (
                Vmm <= METER_FLOOR, lambda k: DegenerateMeter(
                    f"meter variance {np.ravel(Vmm)[k]:.3e} is not positive")))
        Vaa, Vsa, Vma = Vout[..., a, a].real, Vout[..., s, a], Vout[..., m, a]
        sm, sa = Vsm.real**2 + Vsm.imag**2, Vsa.real**2 + Vsa.imag**2
        if simplified:
            denom, Vc = None, Vss - sm / Vmm - sa / Vaa
        else:
            denom = Vmm * Vaa - (Vma.real**2 + Vma.imag**2)
            Vc = Vss - (Vmm * sa + sm * Vaa - 2 * (Vsm * Vma * Vsa.conj()).real) / denom
    channel = (np.minimum(Vmm, Vaa) <= METER_FLOOR,
               lambda k: DegenerateMeter("conditioning channel has vanishing variance"))
    block = (not simplified and denom <= METER_FLOOR,
             lambda k: DegenerateMeter("meter/ancilla covariance block is singular"))
    return _clamped(Vc, Vss, channel, block)


def cqnc_conditional_variance(
    Vout: NDArray,
    layout: ModeLayout | None = None,
    simplified: bool = False,
) -> float | NDArray[np.float64]:
    """Mechanical variance conditioned on the meter and the negative-mass
    amplitude quadrature.

    ``Vout`` is the Hermitian cross-spectral density, or a stack of them
    ``[..., i, j]``; V_c is its Schur complement on the (meter, ancilla)
    block.  The full expression keeps the meter-ancilla cross
    covariance; the ``simplified`` variant drops it (valid when that
    correlation is small against the two variances).  V_c has the guards
    of :func:`conditional_variance`.
    """
    s, m, a = _conditioning_index(layout or CQNC_LAYOUT, "meter+ancilla")
    return _conditioned(Vout, s, m, a, simplified)


def figures_from_parts(
    Vc: float, ns_eq: float, nm_eq: float, Vx: float, omega: float
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit from V_c and the equivalent noises n_eq: the
    transfers T = V_x / (V_x + n_eq), zero where the path carries nothing
    (n_eq = inf), and the regime.

    Numbers give one figure; arrays over a stack of points (and ``omega``,
    one frequency per point or one for all) give a list of figures, one
    per point in stack order.  Every field is a Python float.
    """
    return _reduced((Vc, ns_eq, nm_eq, Vx, omega, 1.0, 1.0), referred=False)


def measured_figures(
    Vc: float, V_ss: float, V_mm: float, G_s: float, G_m: float, Vx: float, omega: float
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of a measurement whose signal and meter outputs
    have variances ``V_ss``, ``V_mm`` and signal power gains ``G_s``,
    ``G_m`` (|S|^2 of the direct paths from the signal input).

    The output variances are referred back through the gains to the
    measurement-equivalent input noises n_eq = V / G - V_x; a gain at or
    below ``SIGNAL_PATH_FLOOR**2`` carries nothing and gives n_eq = inf.
    They reduce as in :func:`figures_from_parts`, so arrays over a stack
    of points give a list of figures, one per point in stack order.
    """
    return _reduced((Vc, V_ss, V_mm, Vx, omega, G_s, G_m), referred=True)


def _reduced(parts, referred: bool) -> MeasurementFigures | list[MeasurementFigures]:
    """The figures of the parts (V_c, n_s, n_m, V_x, omega, G_s, G_m),
    whose n_s and n_m are variances to refer back through the gains when
    ``referred`` (else the gains are unread).  The raveled parts are read
    as Python floats once and reduced point by point (a zero V_x + n_eq
    raises ZeroDivisionError; the regime rule is :func:`classify_regime`'s),
    without the frozen ``__init__``'s ``object.__setattr__`` per field."""
    try:  # parts of one shape (one point's, say) take one call
        columns = np.array(parts, dtype=float)
    except ValueError:
        columns = np.empty((len(parts),) + np.broadcast_shapes(*map(np.shape, parts)))
        for k, part in enumerate(parts):
            columns[k] = part
    figures, floor, isfinite, inf = [], SIGNAL_PATH_FLOOR**2, math.isfinite, math.inf
    new, set_fields, append = object.__new__, object.__setattr__, figures.append
    for vc, ns, nm, vx, w, gs, gm in zip(*columns.reshape(len(parts), -1).tolist()):
        if referred:
            ns = ns / gs - vx if gs > floor else inf
            nm = nm / gm - vx if gm > floor else inf
        ts = vx / (vx + ns) if isfinite(ns) else 0.0
        tm = vx / (vx + nm) if isfinite(nm) else 0.0
        figure = new(MeasurementFigures)
        set_fields(figure, "__dict__", {"Vc": vc, "Ts": ts, "Tm": tm, "ns_eq": ns, "nm_eq": nm,
                                        "regime": _QUADRANTS[2 * (vc < 0.5) + (ts + tm > 1.0)],
                                        "omega": w})
        append(figure)
    return figures if columns.ndim > 1 else figures[0]


def _conditioning_index(layout: ModeLayout, conditioning: str) -> tuple[int, ...]:
    """(signal, meter) of the layout, and its ancilla (quadrature 4 when it
    names none) for ``"meter+ancilla"``."""
    if conditioning == "meter":
        return layout.signal_index, layout.meter_index
    if conditioning == "meter+ancilla":
        a = layout.ancilla_index
        return layout.signal_index, layout.meter_index, 4 if a is None else a
    raise ValueError(f"unknown conditioning {conditioning!r}")


@functools.cache
def _readout(layout: ModeLayout, conditioning: str) -> tuple[tuple[int, ...], NDArray]:
    """The outputs the figures read, :func:`_conditioning_index`, and the
    positions among them of those in the meter's mode, which loss acts on
    (a read-only array, shared by every call)."""
    index = _conditioning_index(layout, conditioning)
    measured = np.array([k for k, i in enumerate(index) if i // 2 == index[1] // 2])
    measured.setflags(write=False)
    return index, measured


def _read_rows(blocks, layout: ModeLayout) -> list[NDArray]:
    """The rows of the scattering ``blocks`` (each ``S[..., i, j]``) that
    :func:`_from_scattering` reads with meter conditioning, entries first."""
    index = _readout(layout, "meter")[0]
    return [_rows_of(S, index) for S in blocks]


def _from_scattering(blocks, Vin: NDArray, layout: ModeLayout, eta: float,
                     omega: float | NDArray, figures: bool, conditioning: str = "meter"):
    """V_c, or with ``figures`` the figures of merit, at detection frequency
    ``omega`` of the scattering ``blocks`` on the input covariance ``Vin``
    (or a stack), with V_x its signal variance.  Each block holds the rows
    of S that the figures read, the outputs ``_readout(layout,
    conditioning)[0]`` (signal, meter and, when conditioning on it,
    ancilla), entries first: ``R[k, j, ...]``.

    Several blocks are the sidebands of a periodic drift: their densities
    S V_in S^dagger add incoherently, and the figures' variances and gains
    come from their coherent sum.  Loss ``eta`` on the meter's mode fills
    at that mode's input variance.
    """
    index, measured = _readout(layout, conditioning)
    s, m = index[:2]
    r0 = m - m % 2
    noise = Vin[..., r0, r0, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails V_c's guard
        V = detected(_output_density(blocks, Vin), measured, eta, noise)
    Vc = _conditioned(V, *range(len(index)))
    if not figures:
        return Vc
    R = functools.reduce(np.add, blocks)
    if len(blocks) > 1:
        V = detected(_output_density((R[:2],), Vin), measured[measured < 2], eta, noise)
    S = R[:2, s]  # S_ss and S_ms, arrays also at one point: numpy scalars round otherwise
    G = S.real**2 + S.imag**2
    return measured_figures(Vc, V[..., 0, 0].real, V[..., 1, 1].real, G[0, ...], eta * G[1],
                            Vin[..., s, s], omega)


def evaluate(
    model: LinearModel,
    omega: float | NDArray,
    bath: BathSpec | None = None,
    conditioning: str = "meter",
) -> MeasurementFigures | list[MeasurementFigures]:
    """Full pipeline: scattering -> output covariance -> figures of merit.

    ``conditioning`` is ``"meter"`` (phase quadrature of the measured
    cavity output) or ``"meter+ancilla"`` (additionally on the
    negative-mass amplitude quadrature; requires an ancilla in the
    layout).  If ``bath`` carries ``eta < 1``, detection loss acts on the
    meter mode's outputs, with the model's input variance of that mode
    as the noise that fills the loss.

    One model at one frequency gives one figure.  A model stack (a drift
    stack, and H when it is one, from parameter arrays, say) or an array
    of frequencies, paired as in :func:`vc_on_grid`, is solved in one
    stacked solve and gives a list of figures, one per point in stack
    order, each with the bits of that point's own evaluation.  The first
    point that fails a guard, in stack order, raises the error a loop
    over the points would raise.
    """
    check_paired(omega, model.A.shape[:-2])
    return _solved(model, omega, bath, conditioning, figures=True)


def vc_on_grid(
    model: LinearModel,
    omegas: float | NDArray,
    bath: BathSpec | None = None,
    conditioning: str = "meter",
) -> NDArray[np.float64]:
    """Conditional variance at every point of a grid, from one stacked
    solve: one model at every detection frequency of ``omegas``, a model
    stack (from parameter arrays, say) at one frequency, or the two
    paired: an array of frequencies broadcast against the leading axes of
    the stack (one frequency per drift matrix, say).

    Each value has the bits of ``evaluate(model, w, bath,
    conditioning).Vc`` at its point, and the guards are the same: the
    first point that fails one, in stack order, raises the error that a
    loop of :func:`evaluate` over the points would raise.
    """
    check_paired(omegas, model.A.shape[:-2])
    return _solved(model, omegas, bath, conditioning, figures=False)


def _solved(model: LinearModel, omegas: float | NDArray, bath: BathSpec | None,
            conditioning: str, figures: bool):
    """V_c, or with ``figures`` the figures of merit, of the model at every
    point of a grid."""
    try:
        R = build_scattering(model, omegas, _readout(model.layout, conditioning)[0])
    except SingularAtFrequency:
        if model.A.ndim > 2 or np.ndim(omegas):
            # a point before the singular one may fail a V_c guard first
            for point, w in _grid_points(model, omegas):
                evaluate(point, w, bath, conditioning)
        raise
    return _from_scattering((R,), model.Vin, model.layout, bath.eta if bath else 1.0, omegas,
                            figures, conditioning)


def _grid_points(model: LinearModel, omegas: float | NDArray):
    """The (model, frequency) of every point of a grid, in stack order;
    the frequencies come out as Python floats."""
    shape = np.broadcast_shapes(np.shape(omegas), model.A.shape[:-2])
    ws = np.broadcast_to(omegas, shape).ravel().tolist()

    def points(M):
        return np.broadcast_to(M, shape + M.shape[-2:]).reshape((-1,) + M.shape[-2:])

    return ((replace(model, A=A, H=H), w) for A, H, w in zip(points(model.A), points(model.H), ws))
