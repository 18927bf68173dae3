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

Every kernel (the linear models here, the beyond-RWA harmonic solver,
the reduced dual-tweezer map and the pulsed readout) applies detection
loss through :func:`core.detected` (a beam splitter on the measured
output mode, which also scales the meter power gain |S_Yx|^2 by eta),
conditions through :func:`conditional_variance` and reduces through
:func:`measured_figures`.

A measurement is QND when V_c < 1/2 and T_s + T_m > 1 simultaneously.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .core import (
    BathSpec,
    LinearModel,
    ModeLayout,
    build_scattering,
    check_paired,
    cross_spectral_density,
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
    """|z|^2 with the bits of ``abs(z) ** 2`` on one complex number.

    That is libm ``hypot`` and ``pow``; numpy's array ``abs`` and ``** 2``
    round differently in the last bit, so a stack takes the ufuncs that
    call libm.
    """
    if isinstance(z, np.ndarray):
        return np.float_power(np.hypot(z.real, z.imag), 2)
    return abs(z) ** 2


def _re_triple(a, b, c):
    """Re(a b c*) with the bits of scalar complex arithmetic (numpy's array
    complex product rounds differently)."""
    re = a.real * b.real - a.imag * b.imag
    im = a.real * b.imag + a.imag * b.real
    return re * c.real - im * -c.imag


def _clamped(Vc, Vss) -> float:
    """V_c of one point: rounding below zero clamps to zero, anything below
    ``-VC_CLAMP_TOL * max(V_ss, 1)`` raises."""
    if Vc < 0:
        if Vc < -VC_CLAMP_TOL * max(Vss, 1.0):
            raise DegenerateMeter(f"conditional variance {Vc:.3e} below zero")
        Vc = 0.0
    return float(Vc)


def _clamped_stack(Vc, Vss, failed, one) -> NDArray[np.float64]:
    """V_c of a stack of points, with the guards of :func:`_clamped`.

    ``failed`` marks the points that fail an earlier guard.  The first
    point that fails any guard, in stack order, goes to ``one`` (the
    single-point function, called with the point's index), which raises
    the error a loop over the points would raise.
    """
    failed = failed | (Vc < -VC_CLAMP_TOL * np.maximum(Vss, 1.0))
    if failed.any():
        one(np.unravel_index(np.argmax(failed), failed.shape))
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
    if Vout.ndim > 2:
        Vss, Vmm = Vout[..., s, s].real, Vout[..., m, m].real
        with np.errstate(divide="ignore", invalid="ignore"):
            Vc = Vss - _abs2(Vout[..., s, m]) / Vmm
        return _clamped_stack(
            Vc, Vss, Vmm <= METER_FLOOR,
            lambda k: conditional_variance(Vout[k], layout, signal, meter),
        )
    Vmm = float(Vout[m, m].real)
    if Vmm <= METER_FLOOR:
        raise DegenerateMeter(f"meter variance {Vmm:.3e} is not positive")
    Vss = float(Vout[s, s].real)
    return _clamped(Vss - _abs2(Vout[s, m]) / Vmm, Vss)


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
    if Vout.ndim > 2:
        Vss, Vmm, Vaa = (Vout[..., i, i].real for i in (s, m, a))
        Vsm, Vsa, Vma = Vout[..., s, m], Vout[..., s, a], Vout[..., m, a]
        failed = np.minimum(Vmm, Vaa) <= METER_FLOOR
        denom = None
        if not simplified:
            denom = Vmm * Vaa - _abs2(Vma)
            failed = failed | (denom <= METER_FLOOR)
        with np.errstate(divide="ignore", invalid="ignore"):
            Vc = _cqnc_schur(Vss, Vmm, Vaa, Vsm, Vsa, Vma, denom)
        return _clamped_stack(
            Vc, Vss, failed,
            lambda k: cqnc_conditional_variance(Vout[k], layout, simplified),
        )
    Vss, Vmm, Vaa = (float(Vout[i, i].real) for i in (s, m, a))
    if min(Vmm, Vaa) <= METER_FLOOR:
        raise DegenerateMeter("conditioning channel has vanishing variance")
    Vsm, Vsa, Vma = complex(Vout[s, m]), complex(Vout[s, a]), complex(Vout[m, a])
    denom = None
    if not simplified:
        denom = Vmm * Vaa - _abs2(Vma)
        if denom <= METER_FLOOR:
            raise DegenerateMeter("meter/ancilla covariance block is singular")
    return _clamped(_cqnc_schur(Vss, Vmm, Vaa, Vsm, Vsa, Vma, denom), Vss)


def _transfer(n_eq: float, Vx: float) -> float:
    """T = V_x / (V_x + n_eq); 0 when the path carries nothing (n_eq = inf)."""
    return Vx / (Vx + n_eq) if math.isfinite(n_eq) else 0.0


def figures_from_parts(
    Vc: float, ns_eq: float, nm_eq: float, Vx: float, omega: float
) -> MeasurementFigures:
    """Figures of merit from V_c and the equivalent noises n_eq."""
    Ts, Tm = _transfer(ns_eq, Vx), _transfer(nm_eq, Vx)
    return MeasurementFigures(
        Vc=Vc, Ts=Ts, Tm=Tm, ns_eq=ns_eq, nm_eq=nm_eq,
        regime=classify_regime(Vc, Ts, Tm), omega=omega,
    )


def measured_figures(
    Vc: float, V_ss: float, V_mm: float, G_s: float, G_m: float, Vx: float, omega: float
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of a measurement whose signal and meter outputs
    have variances ``V_ss``, ``V_mm`` and signal power gains ``G_s``,
    ``G_m`` (|S|^2 of the direct paths from the signal input).

    The output variances are referred back through the gains to the
    measurement-equivalent input noises n_eq = V / G - V_x; a gain at or
    below ``SIGNAL_PATH_FLOOR**2`` carries nothing and gives n_eq = inf.
    Arrays of ``Vc``, ``V_ss``, ``V_mm``, ``G_s`` and ``G_m`` over a stack
    of points (and of ``omega``, one frequency per point, or one for all)
    give a list of figures, one per point in stack order.  The stack is
    reduced as float64 arrays with the IEEE operations of the single
    point, so every field has the bits of that point's own reduction.
    """
    if not np.ndim(V_ss):
        ns, nm = (V / G - Vx if G > SIGNAL_PATH_FLOOR**2 else math.inf
                  for V, G in ((V_ss, G_s), (V_mm, G_m)))
        return figures_from_parts(Vc, ns, nm, Vx, omega)
    arrays = np.broadcast_arrays(Vc, V_ss, V_mm, G_s, G_m, Vx)
    omegas = np.broadcast_to(omega, arrays[0].shape).ravel().tolist()
    Vc, V_ss, V_mm, G_s, G_m, Vx = map(np.ravel, arrays)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ns, nm = (np.where(G > SIGNAL_PATH_FLOOR**2, V / G - Vx, math.inf)
                  for V, G in ((V_ss, G_s), (V_mm, G_m)))
        if (Vx + ns == 0).any() or (Vx + nm == 0).any():  # a zero there is finite
            raise ZeroDivisionError("float division by zero")  # as on the point's Python floats
        Ts, Tm = (np.where(np.isfinite(n), Vx / (Vx + n), 0.0) for n in (ns, nm))
    return list(map(MeasurementFigures, Vc.tolist(), Ts.tolist(), Tm.tolist(), ns.tolist(),
                    nm.tolist(), classify_regime(Vc, Ts, Tm), omegas))


def _conditioned_vc(Vout: NDArray, layout: ModeLayout, conditioning: str):
    if conditioning == "meter":
        return conditional_variance(Vout, layout)
    if conditioning == "meter+ancilla":
        return cqnc_conditional_variance(Vout, layout)
    raise ValueError(f"unknown conditioning {conditioning!r}")


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

    A model stack (a drift stack, and H when it is one, from parameter
    arrays, say) is solved at ``omega``, or at an array of one frequency
    per drift, in one stacked solve and gives a list of figures, one per
    point in stack order, each with the bits of that point's own
    evaluation.  The first point that fails a guard, in stack order,
    raises the error a loop over the points would raise.
    """
    if np.ndim(omega) and np.shape(omega) != model.A.shape[:-2]:
        raise ValueError("evaluate takes one frequency or one per drift; vc_on_grid scores a grid")
    S, Vout, Vc, eta = _solved(model, omega, bath, conditioning)
    s, m = model.layout.signal_index, model.layout.meter_index
    # one point indexes numpy scalars, which _abs2 and measured_figures
    # take on their cheap scalar path (0-d arrays would cost microseconds)
    lead = (...,) if model.A.ndim > 2 else ()
    ss, mm, ms = (*lead, s, s), (*lead, m, m), (*lead, m, s)
    return measured_figures(
        Vc, Vout[ss].real, Vout[mm].real, _abs2(S[ss]), eta * _abs2(S[ms]),
        float(model.Vin[s, s]), omega,
    )


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
    return _solved(model, omegas, bath, conditioning)[2]


def _solved(model: LinearModel, omegas: float | NDArray, bath: BathSpec | None, conditioning: str):
    """Scattering matrix, detected cross-spectral density, V_c and the
    detection efficiency applied, for the model at every point of a grid."""
    try:
        S = build_scattering(model, omegas)
    except SingularAtFrequency:
        if model.A.ndim > 2 or np.ndim(omegas):
            # a point before the singular one may fail a V_c guard first
            for point, w in _grid_points(model, omegas):
                evaluate(point, w, bath, conditioning)
        raise
    r0 = 2 * model.meter_mode
    eta = bath.eta if bath else 1.0
    Vout = detected(cross_spectral_density(S, model.Vin), slice(r0, r0 + 2), eta, model.Vin[r0, r0])
    return S, Vout, _conditioned_vc(Vout, model.layout, conditioning), eta


def _grid_points(model: LinearModel, omegas: float | NDArray):
    """The (model, frequency) of every point of a grid, in stack order;
    the frequencies of an array come out as Python floats."""
    shape = np.broadcast_shapes(np.shape(omegas), model.A.shape[:-2])
    if np.ndim(omegas):
        ws = np.broadcast_to(omegas, shape).ravel().tolist()
    else:
        ws = [omegas] * math.prod(shape)
    if model.A.ndim == 2:
        return ((model, w) for w in ws)

    def points(M):
        return np.broadcast_to(M, shape + M.shape[-2:]).reshape((-1,) + M.shape[-2:])

    return ((replace(model, A=A, H=H), w) for A, H, w in zip(points(model.A), points(model.H), ws))
