"""Single-quadrature readout beyond the rotating-wave approximation.

The counterrotating part of the interaction makes the drift matrix
periodic at twice the mechanical frequency,

    A(t) = A(-1) e^{-2i w_m t} + A(0) + A(+1) e^{+2i w_m t}.

Expanding the quadrature vector in the same harmonics turns the
frequency-domain equations of motion into a block-tridiagonal system
coupling component n to n +/- 1, with diagonal blocks
A(0) + i(w - 2 n w_m) I.  The output spectrum at detection frequency w
collects component n driven by the input at w + 2 n w_m, through one
scattering block S_n per component.

The expansion ends at |n| = 1 without truncation error: the drift is feed
forward (the sidebands route X -> (x, p) and (x, p) -> Y only, nothing
drives X, Y drives nothing, the static mechanical block is a multiple of
the identity, and A(+-1)^2 = 0), so A(+-1) D^-1 A(+-1), a multiple of
A(+-1)^2, vanishes, and so do the components |n| >= 2.  Eliminating the +-1
components leaves one 4x4 Schur complement per base frequency (cf. Malz and
Nunnenkamp, PRA 94, 023803 (2016)).  Every diagonal block, Schur complement
and inverse is lower triangular in (X, x, Y, p) with nine possible entries,
and the solve is closed-form arithmetic on them; other drifts raise.

The blocks go to :func:`metrics._from_scattering`, the pipeline every
scattering map shares, which reduces them in two ways:

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

from .core import (FOUR_MODE, BathSpec, _entries_first, _require_regular, check_paired,
                   check_sign, check_stable, input_covariance, matrix)
from .metrics import MeasurementFigures, _from_scattering, _read_rows, figures_from_parts
from .models import _READOUT_COUPLING, _coupled, _readout_couplings, _resolve_coupling


@dataclass(frozen=True)
class FloquetDrift:
    """Harmonic components of the periodic drift matrix, or stacks of them
    ``[..., i, j]`` (``omega_m`` an array broadcast against their axes)."""

    A_minus: NDArray[np.complex128]
    A_zero: NDArray[np.float64]
    A_plus: NDArray[np.complex128]
    omega_m: float | NDArray[np.float64]

    def __post_init__(self):
        if not np.allclose(self.A_plus, np.conj(self.A_minus), atol=1e-12):
            raise ValueError("A_plus must be the elementwise conjugate of A_minus")
        A_zero = np.asarray(self.A_zero)
        if np.iscomplexobj(A_zero) and np.max(np.abs(A_zero.imag)) > 1e-12:
            raise ValueError("A_zero must be real")


#: the counterrotating coupling: A(-1) = g * this
_SIDEBAND_COUPLING = np.array([
    [0, 0, 0, 0],
    [0, 0, -1, 1j],
    [-1j, 0, 0, 0],
    [-1, 0, 0, 0],
])

#: offsets j of the blocks D_j = A(0) + i(w + 2 j w_m) I that the base frequencies
#: w + 2 n w_m, n = -1, 0, 1, need, then the n of their Schur complements
_OFFSETS = np.array([-2, -1, 0, 1, 2, -1, 0, 1])

#: (rows, columns) in (X, Y, x, p) where a feed-forward A(0) may be nonzero; A(+-1)
#: only at (x, X), (p, X), (Y, x), (Y, p), and S_{+-1} at the last five
_AT = ((0, 1, 2, 3, 2, 3, 1, 1, 1), (0, 1, 2, 3, 0, 0, 2, 3, 0))
_I, _J = np.array(_AT)


def decompose_drift(
    kappa: float, gamma: float, omega_m: float,
    g: float | None = None, C: float | None = None,
    order: int = 1,
) -> FloquetDrift:
    """Harmonic components for QND readout with counterrotating terms.

    The static component is the ideal single-quadrature drift; the
    sidebands couple the mechanical quadratures to the off-resonant
    cavity amplitude.  Arrays of any numeric parameters broadcast and
    give the components as stacks ``[..., i, j]``, one drift per point.
    The drift is feed forward, so its Floquet exponents are the
    eigenvalues of the static component, which :func:`core.check_stable`
    checks as in every builder; the static component is built at c = 0
    and takes its coupling c = -2g through :func:`models._coupled`.  ``order``
    is the harmonic order of the expansion; every integer >= 1 gives the
    same exact solve.
    """
    check_sign("positive", kappa=kappa, gamma=gamma, omega_m=omega_m)
    try:
        orders = order.ravel().tolist() if isinstance(order, np.ndarray) else [order]
        integral = not isinstance(order, bool) and all(
            o >= 1 and float(o).is_integer() for o in orders)
    except TypeError:
        integral = False
    if not integral:
        raise ValueError(f"harmonic order must be an integer >= 1, got {order!r}")
    g = _resolve_coupling(kappa, gamma, g, C)
    if isinstance(order, np.ndarray):  # the same drift at every order
        g = np.broadcast_to(g, np.broadcast_shapes(np.shape(g), order.shape))
    k2, g2m, c = kappa / 2, gamma / 2, -2 * g
    A_zero = _coupled(matrix([
        [-k2, 0, 0, 0],
        [0, -k2, 0, 0],
        [0, 0, -g2m, 0],
        [0, 0, 0, -g2m],
    ]), c, _READOUT_COUPLING)
    check_stable(A_zero)
    A_minus = np.multiply.outer(g, _SIDEBAND_COUPLING)  # a finite g: no inf * 0
    return FloquetDrift(A_minus, A_zero, A_minus.conj(), omega_m)


def sideband_scattering(
    fd: FloquetDrift, H: NDArray, omega: float | NDArray
) -> dict[int, NDArray[np.complex128]]:
    """Scattering blocks S_n(w), n = -1, 0, 1: the part of the output at w
    contributed by component n, driven by the input at w + 2 n w_m.

    At base frequency w + 2 n w_m the components -1, 0, +1 sit on the
    diagonal blocks D_{n+1}, D_n, D_{n-1}.  The centre component solves
    S_n u_0 = -H with the Schur complement S_n = D_n - A(-1) D_{n-1}^-1 A(+1)
    - A(+1) D_{n+1}^-1 A(-1): D_n less sum_m A(-+1)[Y, m] A(+-1)[m, X] /
    d_{n-+1} at (Y, X) (m = x, p; d_j the mechanical diagonal of D_j).  And
    u_{+-1} = -D_0^-1 A(+-1) u_0 at n = +-1.  A stacked drift, H or ``omega``
    (paired as in :func:`metrics.vc_on_grid`) gives stacks of blocks
    ``[..., i, j]``, each with the bits of its point alone.  The diagonal
    blocks, then the Schur complements, of each point are checked as in
    :func:`core.build_scattering`; the first singular one, in stack order,
    raises :class:`SingularAtFrequency` at its ``omega``.
    """
    h = np.diagonal(H, 0, -2, -1)
    if np.count_nonzero(H) != np.count_nonzero(h):
        raise ValueError("H must be diagonal")
    points = check_paired(omega, np.broadcast_shapes(fd.A_zero.shape[:-2], np.shape(fd.omega_m),
                                                     h.shape[:-1]))
    a, Apm = _feed_forward_entries(fd, len(points))  # a[k, ...], Apm[k, -+, ...]
    M, Minv = np.empty((2, 9, 8) + points, complex)  # [entry, block, ...]: D_j, then S_n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # singular: inf, NaN
        M[:] = a[:, None]
        M[:3] += 1j * (_OFFSETS.reshape((8,) + (1,) * len(points)) * (2 * fd.omega_m) + omega)
        M[3] = M[2]
        np.divide(1.0, M[:4], out=Minv[:4])
        np.multiply(Minv[2] * Minv[[0, 0, 1, 1]], -M[4:8], out=Minv[4:8])
        k = Apm[2] * Apm[0, ::-1] + Apm[3] * Apm[1, ::-1]
        M[8, 5:] -= k[0] * Minv[2, :3] + k[1] * Minv[2, 2:5]
        np.multiply(-(M[8] * Minv[0] + M[6] * Minv[4] + M[7] * Minv[5]), Minv[1], out=Minv[8])
        by_point = (0, *range(2, M.ndim), 1)  # each point's blocks, then the next point's
        _require_regular(M.transpose(by_point), np.asarray(omega, float)[..., None],
                         (Minv.transpose(by_point), 1.0), _AT)
        D0inv, Sinv = Minv[:, 2, None], Minv[:, 5::2]  # S^-1 at n = -1, +1 on axis 1
        T = Apm * Sinv[[0, 0, 2, 3]]  # A(+-1) S^-1 at _AT[4:8]
        F = np.concatenate([T * D0inv[[2, 3, 1, 1]], (D0inv[1] * (  # D_0^-1 T at _AT[4:]
            Apm[2] * Sinv[4] + Apm[3] * Sinv[5]) + D0inv[6] * T[0] + D0inv[7] * T[1])[None]])
    h_i, h_j = (_entries_first(h[..., index], len(points)) for index in (_I, _J))
    S0 = Minv[:, 6] * -h_j * h_i  # H X H at _AT, scaling the columns first
    S0[:4] -= 1.0
    blocks = np.zeros((3,) + points + (4, 4), complex)
    blocks[1][..., _I, _J] = S0.transpose((*range(1, S0.ndim), 0))
    blocks[::2][..., _I[4:], _J[4:]] = (F * h_j[4:, None] * h_i[4:, None]).transpose(
        (*range(1, F.ndim), 0))
    return {-1: blocks[0], 0: blocks[1], 1: blocks[2]}


def _feed_forward_entries(fd: FloquetDrift, rank: int) -> tuple[NDArray, NDArray]:
    """A(0) at ``_AT``, ``[k, ...]``, and A(-1), A(+1) at the sideband ones,
    ``[k, -+, ...]`` (``rank`` stack axes); ValueError unless feed forward."""
    a, sidebands = fd.A_zero[..., _I, _J], np.stack((fd.A_minus, fd.A_plus))
    s = sidebands[..., _I[4:8], _J[4:8]]
    p, q = s[..., 2] * s[..., 0], s[..., 3] * s[..., 1]  # the terms of A^2 at (Y, X)
    if (np.count_nonzero(fd.A_zero) != np.count_nonzero(a)
            or np.count_nonzero(sidebands) != np.count_nonzero(s)
            or np.count_nonzero(a[..., 2] != a[..., 3]) or (abs(p + q) > 1e-12 * abs(p)).any()):
        raise ValueError("drift is not feed forward: X is driven, Y drives, the static mechanical "
                         "block is not a multiple of I, or A(+-1) is not X -> (x, p) -> Y")
    return _entries_first(a, rank), np.stack([_entries_first(x, rank) for x in s], 1)


def _measured(fd: FloquetDrift, bath: BathSpec, omega: float | NDArray, figures: bool):
    """:func:`floquet_metrics`, or without ``figures`` :func:`floquet_vc`.
    The input couplings take the decay rates off the static drift
    diagonal, so a stacked drift gives a stack of H."""
    H = _readout_couplings(-2.0 * fd.A_zero[..., 0, 0], -2.0 * fd.A_zero[..., 2, 2])
    blocks = sideband_scattering(fd, H, omega)
    return _from_scattering(_read_rows(blocks.values(), FOUR_MODE),
                            input_covariance(bath, FOUR_MODE), FOUR_MODE, bath.eta, omega, figures)


def floquet_vc(
    fd: FloquetDrift, bath: BathSpec, omega: float | NDArray = 0.0
) -> float | NDArray[np.float64]:
    """Conditional variance of the beyond-RWA readout, ``floquet_metrics(fd,
    bath, omega).Vc``.

    A stacked drift (from parameter arrays) or ``omega`` (paired as in
    :func:`metrics.vc_on_grid`) gives one value per point from one stacked
    solve, each with the bits of the point's own call; the first point
    that fails a guard, in stack order, raises.
    """
    return _measured(fd, bath, omega, figures=False)


def floquet_metrics(
    fd: FloquetDrift, bath: BathSpec, omega: float | NDArray = 0.0
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of the beyond-RWA readout.

    The decay rates are read off the static drift diagonal.  Detection
    loss ``bath.eta`` is a beam splitter on the optical output, filled
    with noise at the cavity-bath variance.  A stack, as in
    :func:`floquet_vc`, gives a list of figures, one per point in stack
    order, from one stacked solve, each with the bits of the point's own
    call; the first point that fails a guard, in stack order, raises.
    """
    return _measured(fd, bath, omega, figures=True)


def floquet_qnd_metrics_closed(
    C: float, kappa: float, omega_m: float, V_x: float
) -> MeasurementFigures:
    """Closed-form benchmark for the sideband solve at carrier detection.

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
    ns = 8 * C * X**2
    nm = np.inf if C == 0 else (1 + 64 * (C * X) ** 2) / (32 * C)
    return figures_from_parts(Vc, ns, nm, V_x, 0.0)
