"""Frequency-domain input-output solver for linear Gaussian models.

A measurement scenario is a set of bosonic modes with linear (drift-matrix)
dynamics driven by white noise.  This module builds the scattering matrix
S(w) = -[H (A + iwI)^-1 H + I] relating input to output quadratures, the
input covariance matrix for a thermal/squeezed bath, and the spectral
covariance of the outputs.

Because A and H are real, S(-w) is the elementwise conjugate of S(w), and
the output record at detection frequency w has the Hermitian
cross-spectral density

    S(w) V_in S(w)^dagger.

Its real part is the symmetrized covariance

    V_out(w) = (1/2) [S(w) V_in S(-w)^T + S(-w) V_in S(w)^T],

which serves the output variances and the transfer coefficients (they
read only the real diagonal).  Conditioning on the measured output uses
the Hermitian matrix itself: at w != 0 its off-diagonal entries are
complex, and dropping their imaginary parts would condition on one
sideband quadrature of the record instead of the whole record at that
frequency.  At w = 0, S is real and the two agree.

The scattering matrix, the condition check and the cross-spectral
density run over a stack: an array of frequencies, or a model whose
drift (and input couplings) are stacks of matrices (one per value of a
parameter array, say), gives matrices ``[..., i, j]`` from one stacked
solve, each with the bits of its point alone.  One model at one
frequency is a stack of shape () and takes the same code.

Vacuum variance is 1/2 per quadrature throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import SingularAtFrequency, UnstableModel

#: reciprocal-condition-number floor below which (A + iwI) counts as singular
RCOND_FLOOR = 1e-12

#: stands in for a zero row or column scale, so that the row or column
#: stays zero (and the matrix singular) instead of dividing by zero
_TINY = np.finfo(float).tiny

#: margin used by the builder-side stability check
STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class ModeLayout:
    """Bookkeeping for the quadrature ordering of a model.

    ``signal_index`` is the measured mechanical quadrature (x) and
    ``meter_index`` the measured optical output quadrature (Y).
    ``mechanical_modes`` lists the mode numbers (pairs of quadratures)
    that couple to the mechanical bath; the rest see the optical bath.
    ``ancilla_index`` optionally marks the quadrature used for secondary
    conditioning (the negative-mass X_c in the six-mode layout).
    """

    labels: tuple[str, ...]
    signal_index: int
    meter_index: int
    mechanical_modes: tuple[int, ...] = (1,)
    ancilla_index: int | None = None

    def __post_init__(self):
        n = len(self.labels)
        if n == 0 or n % 2:
            raise ValueError(f"labels must have even positive length, got {n}")
        idx = (self.signal_index, self.meter_index)
        if len(set(idx)) != 2:
            raise ValueError(f"signal/meter indices must be distinct: {idx}")
        for i in idx:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for {n} quadratures")
        for m in self.mechanical_modes:
            if not 0 <= m < n // 2:
                raise ValueError(f"mechanical mode {m} out of range")

    @property
    def n_modes(self) -> int:
        return len(self.labels) // 2


#: standard four-quadrature layout (X, Y, x, p)
FOUR_MODE = ModeLayout(("X", "Y", "x", "p"), 2, 1, mechanical_modes=(1,))

#: CQNC layout with the negative-mass oscillator appended
CQNC_LAYOUT = ModeLayout(
    ("X", "Y", "x", "p", "Xc", "Yc"),
    2, 1,
    mechanical_modes=(1, 2),
    ancilla_index=4,
)


@dataclass(frozen=True)
class BathSpec:
    """Input-noise specification.

    ``n_m`` is the mean mechanical bath occupation and ``m_sq`` its complex
    squeezing parameter; ``n_c`` the cavity bath occupation and ``eta`` the
    detection efficiency of the measured optical output.
    """

    n_m: float = 0.0
    m_sq: complex = 0.0
    n_c: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if self.n_m < 0:
            raise ValueError(f"n_m must be nonnegative, got {self.n_m}")
        if self.n_c < 0:
            raise ValueError(f"n_c must be nonnegative, got {self.n_c}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if abs(self.m_sq) ** 2 > self.n_m * (self.n_m + 1) * (1 + 1e-12):
            raise ValueError(
                f"|m_sq|^2 = {abs(self.m_sq)**2:.6g} exceeds n_m(n_m+1) = "
                f"{self.n_m * (self.n_m + 1):.6g}"
            )
        if self.V_x <= 0 or self.V_p <= 0:
            raise ValueError("mechanical input variances must be positive")

    @property
    def V_x(self) -> float:
        """Position variance of the mechanical input, n_m + Re(m_sq) + 1/2."""
        return self.n_m + complex(self.m_sq).real + 0.5

    @property
    def V_p(self) -> float:
        """Momentum variance of the mechanical input, n_m - Re(m_sq) + 1/2."""
        return self.n_m - complex(self.m_sq).real + 0.5

    @property
    def V_xp(self) -> float:
        """Symmetrized position-momentum correlation, Im(m_sq)."""
        return complex(self.m_sq).imag

    @property
    def optical_variance(self) -> float:
        return self.n_c + 0.5

    def mechanical_block(self) -> NDArray[np.float64]:
        return np.array([[self.V_x, self.V_xp], [self.V_xp, self.V_p]])


def matrix(rows) -> NDArray[np.float64]:
    """The matrix written as the literal ``rows`` (a list of rows of
    entries, each a number or an array), or, when any entry is an array,
    the stack ``[..., i, j]`` of the matrices at each point of the
    broadcast entries."""
    entries = [x for row in rows for x in row]
    shape = np.broadcast_shapes(*(x.shape for x in entries if isinstance(x, np.ndarray)))
    if not shape:
        return np.array(rows, dtype=float)
    M = np.empty(shape + (len(entries),))
    for k, x in enumerate(entries):
        M[..., k] = x
    return M.reshape(shape + (len(rows), -1))


def check_sign(sign: str, **values) -> None:
    """Raise ValueError unless every value is ``sign`` ("positive" or
    "nonnegative"; NaN is neither), naming the parameter and its value
    (of an array, the first failing entry in stack order)."""
    for name, value in values.items():
        ok = value > 0 if sign == "positive" else value >= 0
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            bad = value[~ok][0] if isinstance(ok, np.ndarray) else value
            raise ValueError(f"{name} must be {sign}, got {float(bad)}")


@dataclass(frozen=True)
class LinearModel:
    """Drift matrix, input couplings, input covariance, and layout.

    ``A`` may be a stack of drift matrices ``[..., i, j]``, and ``H`` a
    stack of input couplings whose leading axes broadcast against A's
    (the builders give one when a decay rate is an array);
    :func:`build_scattering` then solves the whole stack at once.
    ``Vin`` and the layout are shared; ``Vin`` is n x n for the n
    quadratures of the layout.  Detection loss is not part of the model:
    it acts on the output covariance (:func:`detected`).
    """

    A: NDArray[np.float64]
    H: NDArray[np.float64]
    Vin: NDArray[np.float64]
    layout: ModeLayout

    def __post_init__(self):
        n = 2 * self.layout.n_modes
        A = np.asarray(self.A, dtype=float)
        H = np.asarray(self.H, dtype=float)
        Vin = np.asarray(self.Vin, dtype=float)
        if A.shape[-2:] != (n, n) or H.shape[-2:] != (n, n) or Vin.shape != (n, n):
            raise ValueError(f"A, H, Vin must be {n} x {n} to match the layout")
        if H.ndim > 2 and np.broadcast_shapes(A.shape[:-2], H.shape[:-2]) != A.shape[:-2]:
            raise ValueError(f"H stack {H.shape[:-2]} must broadcast to A's {A.shape[:-2]}")
        d = np.diagonal(H, 0, -2, -1)
        if np.count_nonzero(H) != np.count_nonzero(d) or not np.isfinite(d).all() or (d < 0).any():
            raise ValueError("H must be diagonal with finite nonnegative entries")
        if not np.allclose(Vin, Vin.T, atol=1e-12):
            raise ValueError("Vin must be symmetric")
        for m in range(n // 2):
            block = Vin[2 * m : 2 * m + 2, 2 * m : 2 * m + 2]
            if np.linalg.det(block) < 0.25 - 1e-9:
                raise ValueError(
                    f"input covariance block of mode {m} violates the "
                    f"Heisenberg bound (det = {np.linalg.det(block):.6g})"
                )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "Vin", Vin)

    @property
    def meter_mode(self) -> int:
        return self.layout.meter_index // 2


def check_paired(omegas: float | NDArray, stack: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of a stack's points at ``omegas``; ValueError unless they pair."""
    try:
        return np.broadcast_shapes(np.shape(omegas), stack)
    except ValueError:
        raise ValueError(f"frequencies of shape {np.shape(omegas)} do not pair with a "
                         f"stack of shape {stack}") from None


def check_stable(A: NDArray, tol: float = STABILITY_TOL) -> None:
    """Raise :class:`UnstableModel` unless all eigenvalues sit strictly
    in the left half-plane (marginal modes are rejected as well, since
    their spectral covariances diverge).  ``A`` may be a stack
    ``[..., i, j]``; the first unstable matrix, in stack order, raises."""
    max_real = np.linalg.eigvals(np.asarray(A, dtype=float)).real.max(axis=-1)
    unstable = max_real > -tol
    if np.count_nonzero(unstable):
        raise UnstableModel(float(max_real[unstable].flat[0]))


def _equilibrated(M: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """(E, r, c): ``M`` after row/column scaling to unit max-modulus rows
    and columns, E = diag(1/r) M diag(1/c).

    Rate hierarchies (gamma orders of magnitude below kappa) inflate the
    raw condition number without the matrix being anywhere near an
    undamped resonance; scaling removes that while a genuinely singular
    matrix stays singular (a zero row or column stays zero).  ``M`` may
    be a stack ``[..., i, j]``.
    """
    r = np.maximum(_max_along(np.abs(M), -1), _TINY)
    E = M / r[..., :, None]
    c = np.maximum(_max_along(np.abs(E), -2), _TINY)
    E /= c[..., None, :]
    return E, r, c


def _max_along(a: NDArray, axis: int) -> NDArray:
    """``a.max(axis)`` from the elementwise maxima of the slices (same bits;
    on a stack ``.max`` runs one short loop per row of each matrix)."""
    a = a.swapaxes(axis, -1)
    return functools.reduce(np.maximum, [a[..., k] for k in range(a.shape[-1])])


def _require_regular(M: NDArray, omega: float | NDArray, solved: tuple | None = None) -> None:
    """Raise :class:`SingularAtFrequency` unless the equilibrated rcond
    of ``M`` (or of every matrix of the stack ``M[..., i, j]``) reaches
    ``RCOND_FLOOR`` (the rcond is that of the SVD; NaN entries count as
    singular).  The first failing matrix, in stack order, raises with its
    frequency: ``omega`` broadcast against the stack.

    Every matrix first takes a cheaper sufficient test: with E the
    equilibrated matrix, ||E||_2 ||E^-1||_2 <= ||E||_F ||E^-1||_F, so a
    Frobenius bound of at most 1 / (2 ``RCOND_FLOOR``) puts the 2-norm
    rcond at 2 ``RCOND_FLOOR`` or above; the factor 2 covers the rounding
    of the computed inverse (about n eps kappa, 1e-3 of the bound there).
    E^-1 = diag(c) M^-1 diag(r) comes from the caller's solve ``solved``
    = (X, h) of X = M^-1 diag(h), else from inverting E.  Only the
    matrices this does not accept (a NaN bound among them, or the whole
    stack when an exactly singular matrix stops the inverse) go on to the
    SVD rcond, so the matrices that raise, and the rcond they report, are
    those of the SVD test alone.
    """
    E, r, c = _equilibrated(M)
    with np.errstate(over="ignore", invalid="ignore"):
        if solved is not None:  # ||E^-1||_F^2 = sum_ij c_i^2 |X_ij|^2 (r_j / h_j)^2
            X2 = np.abs(solved[0])
            X2 *= X2
            inverse2 = ((c**2)[..., None, :] @ X2 @ ((r / solved[1]) ** 2)[..., :, None])[..., 0, 0]
        else:
            try:
                inverse2 = _frobenius2(np.linalg.inv(E))
            except np.linalg.LinAlgError:  # an exactly singular matrix: all go to the SVD
                inverse2 = np.nan
        checked = ~(_frobenius2(E) * inverse2 <= 0.25 / RCOND_FLOOR**2)  # NaN is checked
    if not checked.any():
        return
    rcond = np.full(checked.shape, np.inf)
    rcond[checked] = 1.0 / np.linalg.cond(E[checked])
    singular = np.flatnonzero(~(rcond >= RCOND_FLOOR))
    if singular.size:
        k = singular[0]
        w = float(np.broadcast_to(omega, rcond.shape).ravel()[k]) if np.ndim(omega) else omega
        raise SingularAtFrequency(w, float(rcond.ravel()[k]))


def _frobenius2(M: NDArray) -> NDArray[np.float64]:
    """Squared Frobenius norm of each matrix of a stack."""
    parts = np.ascontiguousarray(M).view(float)  # real and imaginary parts side by side
    return np.einsum("...ij,...ij->...", parts, parts)


def build_scattering(model: LinearModel, omega: float | NDArray) -> NDArray[np.complex128]:
    """Scattering matrix S(w) = -[H (A + iwI)^-1 H + I] for the model, as
    the array ``S[i, j]``: rows are output channels, columns input channels.

    S is square; detection loss acts later, on the output covariance
    (:func:`detected`).  An array of frequencies, or a model stack (A,
    and H when it is a stack), gives the stack ``S[..., i, j]`` from one
    stacked solve; the first singular point, in stack order, raises
    :class:`SingularAtFrequency`.  With no zero in H it solves X = M^-1 H
    first and hands the guard M^-1 = X diag(1/h); otherwise, or when an
    exactly singular matrix stops that solve, the guard inverts on its own.
    """
    eye = np.eye(model.A.shape[-1])
    M = model.A + 1j * np.asarray(omega)[..., None, None] * eye
    H = model.H.astype(complex)  # cast once: numpy casts a real operand slowly (same bits)
    h = np.diagonal(model.H, 0, -2, -1)
    try:
        X = np.linalg.solve(M, H) if h.all() else None
    except np.linalg.LinAlgError:
        X = None
    _require_regular(M, omega, None if X is None else (X, h))
    return -(H @ (np.linalg.solve(M, H) if X is None else X) + eye)


def input_covariance(bath: BathSpec, layout: ModeLayout) -> NDArray[np.float64]:
    """Input covariance: (n_c + 1/2) I_2 per optical mode and the
    thermal-squeezed block per mechanical mode."""
    n = 2 * layout.n_modes
    V = np.zeros((n, n))
    mech = bath.mechanical_block()
    for m in range(layout.n_modes):
        sl = slice(2 * m, 2 * m + 2)
        V[sl, sl] = mech if m in layout.mechanical_modes else bath.optical_variance * np.eye(2)
    return V


def cross_spectral_density(S: NDArray, Vin: NDArray) -> NDArray[np.complex128]:
    """Hermitian cross-spectral density S V_in S^dagger of the outputs.

    This is the matrix to condition on.  Its real part is the symmetrized
    output covariance, which serves the output variances and the transfer
    coefficients; its off-diagonal entries are complex at nonzero
    frequency.  ``S`` may be a stack ``[..., i, j]``.
    """
    V = S @ Vin.astype(S.dtype) @ S.conj().swapaxes(-1, -2)
    return 0.5 * (V + V.conj().swapaxes(-1, -2))


def detected(V: NDArray, rows: slice, eta: float, noise: float) -> NDArray:
    """Output covariance ``V`` as seen by detectors of efficiency ``eta``
    on the measured quadratures ``rows``.

    Each detector sits behind a beam splitter of transmission eta whose
    open port admits uncorrelated noise of variance ``noise`` (Clerk et
    al., Rev. Mod. Phys. 82, 1155 (2010)): the rows and columns ``rows``
    scale by sqrt(eta), and (1 - eta) ``noise`` adds to their diagonal.
    The signal power gain of a detected quadrature scales by eta.  ``V``
    is a Hermitian or real covariance, or a stack ``[..., i, j]``; at
    eta = 1 it is returned itself, otherwise a new array.
    """
    if eta == 1.0:
        return V
    V = V.copy()
    V[..., rows, :] *= np.sqrt(eta)
    V[..., :, rows] *= np.sqrt(eta)
    measured = np.arange(V.shape[-1])[rows]
    V[..., measured, measured] += (1.0 - eta) * noise
    return V
