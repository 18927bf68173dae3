"""Single-quadrature readout beyond the rotating-wave approximation.

The counterrotating part of the interaction makes the drift matrix
periodic at twice the mechanical frequency,

    A(t) = A(-1) e^{-2i w_m t} + A(0) + A(+1) e^{+2i w_m t}.

Expanding the quadrature vector in the same harmonics turns the
frequency-domain equations of motion into a block-tridiagonal system
coupling component n to n +/- 1.  Truncating at order N (default 1)
and solving yields one scattering block S_n per component; the output
spectrum at detection frequency w collects component n driven by the
input at w + 2 n w_m.

Two reductions of the blocks are used downstream:

* the spectral output covariance sums the sideband contributions
  S_n V_in S_n^dagger incoherently (inputs at distinct frequencies are
  uncorrelated); the Hermitian sum, complex off the diagonal, feeds the
  conditional variance;
* the transfer coefficients use the coherent sum of the blocks as an
  effective scattering matrix, which reproduces the closed-form
  benchmarks below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import FOUR_MODE, BathSpec, input_covariance
from .errors import SingularAtFrequency
from .metrics import (
    MeasurementFigures,
    classify_regime,
    conditional_variance,
    figures_from_parts,
)


@dataclass(frozen=True)
class FloquetDrift:
    """Harmonic components of the periodic drift matrix."""

    A_minus: NDArray[np.complex128]
    A_zero: NDArray[np.float64]
    A_plus: NDArray[np.complex128]
    omega_m: float
    order: int = 1

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")
        if not np.allclose(self.A_plus, np.conj(self.A_minus), atol=1e-12):
            raise ValueError("A_plus must be the elementwise conjugate of A_minus")
        if np.max(np.abs(np.asarray(self.A_zero).imag)) > 1e-12:
            raise ValueError("A_zero must be real")

    def at_time(self, t: float) -> NDArray[np.float64]:
        """Reconstruct the (real) drift matrix at time t."""
        val = (
            self.A_minus * np.exp(-2j * self.omega_m * t)
            + self.A_zero
            + self.A_plus * np.exp(2j * self.omega_m * t)
        )
        return val.real


#: the counterrotating coupling: A(-1) = g * this
_SIDEBAND_COUPLING = np.array([
    [0, 0, 0, 0],
    [0, 0, -1, 1j],
    [-1j, 0, 0, 0],
    [-1, 0, 0, 0],
])


def decompose_drift(
    kappa: float, gamma: float, omega_m: float,
    g: float | None = None, C: float | None = None,
    order: int = 1,
) -> FloquetDrift:
    """Harmonic components for QND readout with counterrotating terms.

    The static component is the ideal single-quadrature drift; the
    sidebands couple the mechanical quadratures to the off-resonant
    cavity amplitude.  A 1-D array of C (or g) gives the components as
    stacks ``[..., i, j]``, one drift per value.
    """
    # local import to avoid a cycle
    from .models import FOUR_MODE_COUPLING, _resolve_coupling, coupled_drift

    if kappa <= 0 or gamma <= 0 or omega_m <= 0:
        raise ValueError("kappa, gamma, omega_m must be positive")
    g = _resolve_coupling(kappa, gamma, g, C)
    A_minus = np.multiply.outer(g, _SIDEBAND_COUPLING)
    A_zero = coupled_drift([
        [-kappa / 2, 0, 0, 0],
        [0, -kappa / 2, 0, 0],
        [0, 0, -gamma / 2, 0],
        [0, 0, 0, -gamma / 2],
    ], FOUR_MODE_COUPLING, g)
    return FloquetDrift(A_minus, A_zero, A_minus.conj(), omega_m, order)


def _component_blocks(fd: FloquetDrift, H: NDArray, omega: float) -> dict[int, NDArray]:
    """Solve the truncated block-tridiagonal system at one frequency.

    Returns, for each retained component n, the matrix mapping the input
    vector at that frequency to u^(n); for a stacked drift, a stack of
    them from one stacked solve, and the first singular system, in stack
    order, raises.
    """
    N = fd.order
    dim = 4 * (2 * N + 1)
    I4 = np.eye(4)
    M = np.zeros(fd.A_zero.shape[:-2] + (dim, dim), dtype=complex)
    for bi, n in enumerate(range(-N, N + 1)):
        sl = slice(4 * bi, 4 * bi + 4)
        M[..., sl, sl] = fd.A_zero + 1j * omega * I4 - 2j * n * fd.omega_m * I4
        if bi + 1 <= 2 * N:
            M[..., sl, 4 * (bi + 1) : 4 * (bi + 1) + 4] = fd.A_minus
        if bi - 1 >= 0:
            M[..., sl, 4 * (bi - 1) : 4 * (bi - 1) + 4] = fd.A_plus
    rcond = 1.0 / np.linalg.cond(M)
    regular = rcond >= 1e-12  # NaN counts as singular
    if not regular.all():
        raise SingularAtFrequency(omega, float(np.ravel(rcond)[regular.argmin()]))
    rhs = np.zeros((dim, 4), dtype=complex)
    rhs[4 * N : 4 * N + 4, :] = -np.asarray(H, dtype=complex)
    sol = np.linalg.solve(M, rhs)
    return {n: sol[..., 4 * (n + N) : 4 * (n + N) + 4, :] for n in range(-N, N + 1)}


def sideband_scattering(
    fd: FloquetDrift, H: NDArray, omega: float
) -> dict[int, NDArray[np.complex128]]:
    """Scattering blocks S_n(w): the part of the output at w contributed
    by component n, driven by the input at w + 2 n w_m.  A stacked drift
    gives stacks of blocks ``[..., i, j]``."""
    H = np.asarray(H, dtype=float)
    out = {}
    for n in range(-fd.order, fd.order + 1):
        comps = _component_blocks(fd, H, omega + 2 * n * fd.omega_m)
        Sn = H @ comps[n]
        if n == 0:
            Sn = Sn - np.eye(4)
        out[n] = Sn
    return out


def floquet_scattering(fd: FloquetDrift, H: NDArray, omega: float):
    """Effective carrier scattering: coherent sum of the sideband blocks."""
    from .core import ScatteringMatrix

    blocks = sideband_scattering(fd, H, omega)
    return ScatteringMatrix(sum(blocks.values()), omega)


def _readout(
    fd: FloquetDrift, bath: BathSpec, kappa: float | None = None, gamma: float | None = None
) -> tuple[NDArray, NDArray]:
    """Input couplings H and input covariance of the readout; the decay
    rates are read off the static drift diagonal unless given (a stacked
    drift shares them)."""
    A0 = fd.A_zero.reshape(-1, 4, 4)[0]
    k = -2.0 * A0[0, 0] if kappa is None else kappa
    gm = -2.0 * A0[2, 2] if gamma is None else gamma
    return np.diag([np.sqrt(k)] * 2 + [np.sqrt(gm)] * 2), input_covariance(bath, FOUR_MODE)


def _detected(V: NDArray, bath: BathSpec) -> NDArray:
    """Output covariance ``V`` (or a stack) seen with detection efficiency
    ``bath.eta``: the optical rows and columns scale by sqrt(eta) and
    ancilla noise at the cavity-bath variance fills the loss.  Scales
    ``V`` in place."""
    eta = bath.eta
    if eta < 1.0:
        anc = (1.0 - eta) * bath.optical_variance
        V[..., 0:2, :] *= np.sqrt(eta)
        V[..., :, 0:2] *= np.sqrt(eta)
        V[..., 0, 0] += anc
        V[..., 1, 1] += anc
    return V


def _conditional_variance(
    blocks: dict[int, NDArray], Vin: NDArray, bath: BathSpec
) -> float | NDArray[np.float64]:
    """V_c on the incoherent sideband sum of the Hermitian cross-spectral
    densities, after detection loss; a stack of blocks gives a stack."""
    V = sum(S @ Vin @ S.conj().swapaxes(-1, -2) for S in blocks.values())
    V = _detected(0.5 * (V + V.conj().swapaxes(-1, -2)), bath)
    return conditional_variance(V, FOUR_MODE)


def floquet_vc(
    fd: FloquetDrift, bath: BathSpec, omega: float = 0.0
) -> float | NDArray[np.float64]:
    """Conditional variance of the truncated readout, ``floquet_metrics(fd,
    bath, omega).Vc``.

    For a stacked drift (an array of cooperativities) it gives one value
    per drift from one stacked solve, each with the bits of the single
    drift's; the first drift that fails a guard, in stack order, raises.
    """
    H, Vin = _readout(fd, bath)
    return _conditional_variance(sideband_scattering(fd, H, omega), Vin, bath)


def floquet_metrics(
    fd: FloquetDrift, bath: BathSpec, omega: float = 0.0,
    kappa: float | None = None, gamma: float | None = None,
) -> MeasurementFigures:
    """Figures of merit of the truncated beyond-RWA readout.

    The decay rates are read off the static drift diagonal unless given.
    Detection loss from ``bath.eta`` scales the measured optical rows
    and mixes in ancilla noise at the cavity-bath variance.
    """
    H, Vin = _readout(fd, bath, kappa, gamma)
    blocks = sideband_scattering(fd, H, omega)
    Vc = _conditional_variance(blocks, Vin, bath)
    Seff = sum(blocks.values())
    Veff = _detected(np.real(Seff @ Vin @ Seff.conj().T), bath)
    meter_signal = abs(Seff[FOUR_MODE.meter_index, FOUR_MODE.signal_index])
    if bath.eta < 1.0:
        meter_signal *= np.sqrt(bath.eta)
    s, m = FOUR_MODE.signal_index, FOUR_MODE.meter_index
    Vx = bath.V_x
    ns = Veff[s, s] / abs(Seff[s, s]) ** 2 - Vx if abs(Seff[s, s]) > 1e-14 else np.inf
    nm = Veff[m, m] / meter_signal**2 - Vx if meter_signal > 1e-14 else np.inf
    return figures_from_parts(Vc, ns, nm, Vx, omega)


def floquet_qnd_metrics_closed(
    C: float, kappa: float, omega_m: float, V_x: float
) -> MeasurementFigures:
    """Closed-form benchmark for the N = 1 truncation at carrier detection.

    Valid for gamma much smaller than both kappa and omega_m.  With
    r = kappa^2/(kappa^2 + 16 omega_m^2) and the sideband admixture
    X = 4 kappa omega_m/(kappa^2 + 16 omega_m^2), the correction terms
    scale as C r (conditional variance), C X^2 (signal transfer), and
    (C X)^2 (meter transfer); kappa -> 0 recovers the ideal readout.
    """
    if C < 0 or kappa <= 0 or omega_m <= 0 or V_x <= 0:
        raise ValueError("invalid closed-form parameters")
    r = kappa**2 / (kappa**2 + 16 * omega_m**2)
    X = 4 * kappa * omega_m / (kappa**2 + 16 * omega_m**2)
    Vc = (1 + (8 * C + 1 / V_x) * (4 * C * r)) / (
        1 / V_x + 32 * C + 32 * C**2 * r / V_x
    )
    Ts = 1.0 / (1.0 + 8 * C * X**2 / V_x)
    Tm = 32 * C / (32 * C + (1 + 64 * (C * X) ** 2) / V_x) if C > 0 else 0.0
    ns = V_x * (1.0 / Ts - 1.0)
    nm = V_x * (1.0 / Tm - 1.0) if Tm > 0 else np.inf
    return MeasurementFigures(
        Vc=Vc, Ts=Ts, Tm=Tm, ns_eq=ns, nm_eq=nm,
        regime=classify_regime(Vc, Ts, Tm), omega=0.0,
    )
