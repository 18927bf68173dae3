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
dual-tweezer map go through one pipeline, :func:`_from_scattering`: it
forms the output density with the code of
:func:`core.cross_spectral_density` (sideband blocks add incoherently),
applies detection loss with :func:`core.detected` (a beam splitter on
the measured output mode, which also scales the meter power gain
|S_Yx|^2 by eta), conditions through :func:`conditional_variance` and
reduces through :func:`measured_figures`.  The pulsed readout, with no
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
    BathSpec,
    LinearModel,
    ModeLayout,
    _output_density,
    build_scattering,
    check_paired,
    detected,
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


def _abs2(z):
    """|z|^2 at each point of a stack, as libm ``hypot`` and ``pow``: the
    bits of ``abs(z) ** 2`` on a Python complex (numpy's ``abs`` and
    ``** 2`` round differently in the last bit)."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


def _re_triple(a, b, c):
    """Re(a b c*) with the bits of scalar complex arithmetic (numpy's array
    complex product rounds differently)."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return re * c.real - im * -c.imag


def _clamped(Vc, Vss, *guards) -> NDArray[np.float64]:
    """V_c at each point of a stack (one point is a stack of shape ()),
    with rounding below zero clamped to zero.

    ``guards`` are the (failed, message) pairs that a point checks before
    its V_c, in order: ``failed`` marks the points that fail the guard and
    ``message(k)`` is the text of point k's error.  V_c below
    ``-VC_CLAMP_TOL * max(V_ss, 1)`` fails last.  The first point that
    fails any guard, in stack order, raises :class:`DegenerateMeter` with
    the text of its first failing guard: the error a loop would raise.
    """
    guards += ((Vc < -VC_CLAMP_TOL * np.maximum(Vss, 1.0),
                lambda k: f"conditional variance {np.asarray(Vc)[k]:.3e} below zero"),)
    failed = np.logical_or.reduce([f for f, _ in guards])
    if np.count_nonzero(failed):
        k = np.unravel_index(np.argmax(failed), np.shape(failed))
        raise DegenerateMeter(next(message(k) for f, message in guards if f[k]))
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
    Vss, Vmm = Vout[..., s, s].real, Vout[..., m, m].real
    with np.errstate(divide="ignore", invalid="ignore"):
        Vc = Vss - _abs2(Vout[..., s, m]) / Vmm
    return _clamped(Vc, Vss, (Vmm <= METER_FLOOR,
                              lambda k: f"meter variance {Vmm[k]:.3e} is not positive"))


def _cqnc_schur(Vss, Vmm, Vaa, Vsm, Vsa, Vma, denom):
    """Schur complement on the (meter, ancilla) block; ``denom`` is its
    determinant, or None to drop the meter-ancilla cross covariance."""
    if denom is None:
        return Vss - _abs2(Vsm) / Vmm - _abs2(Vsa) / Vaa
    num = Vmm * _abs2(Vsa) + _abs2(Vsm) * Vaa - 2 * _re_triple(Vsm, Vma, Vsa)
    return Vss - num / denom


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
    s = layout.signal_index if layout is not None else 2
    m = layout.meter_index if layout is not None else 1
    a = layout.ancilla_index if layout is not None and layout.ancilla_index is not None else 4
    Vss, Vmm, Vaa = (Vout[..., i, i].real for i in (s, m, a))
    Vsm, Vsa, Vma = Vout[..., s, m], Vout[..., s, a], Vout[..., m, a]
    guards = [(np.minimum(Vmm, Vaa) <= METER_FLOOR,
               lambda k: "conditioning channel has vanishing variance")]
    denom = None
    if not simplified:
        denom = Vmm * Vaa - _abs2(Vma)
        guards.append((denom <= METER_FLOOR, lambda k: "meter/ancilla covariance block is singular"))
    with np.errstate(divide="ignore", invalid="ignore"):
        Vc = _cqnc_schur(Vss, Vmm, Vaa, Vsm, Vsa, Vma, denom)
    return _clamped(Vc, Vss, *guards)


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
    points = np.broadcast(Vc, ns_eq, nm_eq, Vx, omega)
    columns = np.empty((5, points.size))
    for column, part in zip(columns, (Vc, ns_eq, nm_eq, Vx, omega)):
        column.reshape(points.shape)[...] = part
    Vc, ns, nm, Vx, omega = columns
    den = Vx + columns[1:3]
    if np.count_nonzero(den == 0):  # a zero there is finite
        raise ZeroDivisionError("float division by zero")  # as on Python floats
    Ts, Tm = np.where(np.isfinite(columns[1:3]), Vx / den, 0.0)
    figures = list(map(MeasurementFigures, Vc.tolist(), Ts.tolist(), Tm.tolist(), ns.tolist(),
                       nm.tolist(), classify_regime(Vc, Ts, Tm), omega.tolist()))
    return figures if points.ndim else figures[0]


def measured_figures(
    Vc: float, V_ss: float, V_mm: float, G_s: float, G_m: float, Vx: float, omega: float
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of a measurement whose signal and meter outputs
    have variances ``V_ss``, ``V_mm`` and signal power gains ``G_s``,
    ``G_m`` (|S|^2 of the direct paths from the signal input).

    The output variances are referred back through the gains to the
    measurement-equivalent input noises n_eq = V / G - V_x; a gain at or
    below ``SIGNAL_PATH_FLOOR**2`` carries nothing and gives n_eq = inf.
    :func:`figures_from_parts` reduces them, so arrays over a stack of
    points give a list of figures, one per point in stack order.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ns, nm = (np.where(G > SIGNAL_PATH_FLOOR**2, np.divide(V, G) - Vx, math.inf)
                  for V, G in ((V_ss, G_s), (V_mm, G_m)))
    return figures_from_parts(Vc, ns, nm, Vx, omega)


def _conditioned_vc(Vout: NDArray, layout: ModeLayout, conditioning: str):
    if conditioning == "meter":
        return conditional_variance(Vout, layout)
    if conditioning == "meter+ancilla":
        return cqnc_conditional_variance(Vout, layout)
    raise ValueError(f"unknown conditioning {conditioning!r}")


def _from_scattering(blocks, Vin: NDArray, layout: ModeLayout, eta: float,
                     omega: float | NDArray, figures: bool, conditioning: str = "meter"):
    """V_c, or with ``figures`` the figures of merit, at detection frequency
    ``omega`` of the scattering ``blocks`` (each ``S[..., i, j]``) on the
    input covariance ``Vin`` (or a stack), with V_x its signal variance.

    Several blocks are the sidebands of a periodic drift: their densities
    S V_in S^dagger add incoherently, symmetrised once after the sum, and
    the figures' variances and gains come from their coherent sum.  Loss
    ``eta`` on the meter's mode fills at that mode's input variance.
    """
    r0 = layout.meter_index - layout.meter_index % 2
    noise, Vx = Vin[..., r0, r0, None], Vin[..., layout.signal_index, layout.signal_index]
    V = detected(_output_density(blocks, Vin), slice(r0, r0 + 2), eta, noise)
    Vc = _conditioned_vc(V, layout, conditioning)
    if not figures:
        return Vc
    S = functools.reduce(np.add, blocks)
    if len(blocks) > 1:
        V = detected(_output_density((S,), Vin), slice(r0, r0 + 2), eta, noise)
    s, m = layout.signal_index, layout.meter_index
    return measured_figures(Vc, V[..., s, s].real, V[..., m, m].real, _abs2(S[..., s, s]),
                            eta * _abs2(S[..., m, s]), Vx, omega)


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
        S = build_scattering(model, omegas)
    except SingularAtFrequency:
        if model.A.ndim > 2 or np.ndim(omegas):
            # a point before the singular one may fail a V_c guard first
            for point, w in _grid_points(model, omegas):
                evaluate(point, w, bath, conditioning)
        raise
    return _from_scattering((S,), model.Vin, model.layout, bath.eta if bath else 1.0, omegas,
                            figures, conditioning)


def _grid_points(model: LinearModel, omegas: float | NDArray):
    """The (model, frequency) of every point of a grid, in stack order;
    the frequencies come out as Python floats."""
    shape = np.broadcast_shapes(np.shape(omegas), model.A.shape[:-2])
    ws = np.broadcast_to(omegas, shape).ravel().tolist()

    def points(M):
        return np.broadcast_to(M, shape + M.shape[-2:]).reshape((-1,) + M.shape[-2:])

    return ((replace(model, A=A, H=H), w) for A, H, w in zip(points(model.A), points(model.H), ws))
