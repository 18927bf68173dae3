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

Every builder's drift but the detuned imperfect readout's is block lower
triangular after a permutation, with diagonal blocks of one or two
quadratures; :func:`build_scattering` solves those by block forward
substitution on the entries their inverse may hold, with the blocks
inverted in closed form, and the rest by LAPACK's solve.  The figures
read only the signal, meter and ancilla rows of S: the substitution
places those straight from its entries, entries first (``R[i, j, ...]``,
the stack on the last axes), and the density of those rows and columns
is summed elementwise over the nonzero entries of V_in, with no matrix
product.  A dense S is formed only where :func:`build_scattering` or
:func:`cross_spectral_density` returns one.

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
import math
import threading
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
    shapes = [x.shape for x in entries if isinstance(x, np.ndarray)]
    if not shapes or not (shape := np.broadcast_shapes(*shapes)):  # numbers: no broadcast
        return np.array(rows, dtype=float)
    M = np.empty(shape + (len(entries),))
    for k, x in enumerate(entries):
        M[..., k] = x
    return M.reshape(shape + (len(rows), len(entries) // len(rows)))


def raise_first(*guards) -> None:
    """Raise the error that a loop over the points of a stack would raise.
    ``guards`` are (failed, error) pairs in the order a point checks them;
    ``failed`` marks the failing points (a bool, or boolean arrays that
    broadcast over the stack), and ``error(k)`` builds the exception of
    flat point k.  The first failing point, in C order, raises the error
    of its first failing guard.  Every per-point guard raises through here."""
    if not any(np.count_nonzero(f) if isinstance(f, np.ndarray) else f for f, _ in guards):
        return
    masks = np.broadcast_arrays(*(f for f, _ in guards))
    k = int(np.argmax(functools.reduce(np.logical_or, masks)))
    raise next(error(k) for (_, error), failed in zip(guards, masks) if failed.flat[k])


def check_sign(sign: str, **values) -> None:
    """Raise ValueError unless every value is ``sign`` ("positive" or "nonnegative";
    NaN is neither), naming the parameter and its value: of arrays, which
    broadcast, the first failing point, and there its first failing parameter."""
    check_signs(**{sign: values})


def check_signs(positive=(), nonnegative=()) -> None:
    """:func:`check_sign` of the dicts ``positive``, then ``nonnegative``,
    whose values all broadcast together."""
    for sign, values in (("positive", positive), ("nonnegative", nonnegative)):
        for value in dict(values).values():
            ok = value > 0 if sign == "positive" else value >= 0
            if ok is not True and (ok is False or not ok.all()):
                return _raise_sign(positive, nonnegative)  # errors are built on failure only


def _raise_sign(positive, nonnegative) -> None:
    """Raise the error of :func:`check_signs`, which found a failing value."""
    checks = [("positive", *item) for item in dict(positive).items()]
    checks += [("nonnegative", *item) for item in dict(nonnegative).items()]
    at = lambda value, k: float(np.broadcast_arrays(value, *(v for *_, v in checks))[0].flat[k])
    raise_first(*((np.logical_not(value > 0 if sign == "positive" else value >= 0),
                   lambda k, sign=sign, name=name, value=value:
                   ValueError(f"{name} must be {sign}, got {at(value, k)}"))
                  for sign, name, value in checks))


@functools.lru_cache(maxsize=16)
def _check_input_covariance(key: bytes, n: int) -> None:
    """Raise ValueError unless the n x n input covariance with the bytes
    ``key`` is symmetric and each mode's 2 x 2 block obeys the Heisenberg
    bound.  The builders share a few covariances among many drifts, so a
    value passes once; a raise is not cached, and raises again."""
    Vin = np.frombuffer(key).reshape(n, n)
    if not np.allclose(Vin, Vin.T, atol=1e-12):
        raise ValueError("Vin must be symmetric")
    det = np.linalg.det(Vin.reshape(n // 2, 2, n // 2, 2).diagonal(0, 0, 2).transpose(2, 0, 1))
    raise_first((det < 0.25 - 1e-9, lambda m: ValueError(  # of each mode's 2 x 2 block
        f"input covariance block of mode {m} violates the "
        f"Heisenberg bound (det = {det[m]:.6g})")))


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
        _check_input_covariance(Vin.tobytes(), n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "Vin", Vin)

    @property
    def meter_mode(self) -> int:
        return self.layout.meter_index // 2


def check_paired(omegas: float | NDArray, stack: tuple[int, ...]) -> tuple[int, ...]:
    """Shape of a stack's points at ``omegas``; ValueError unless they pair."""
    if not stack:  # one model: the frequencies' shape
        return np.shape(omegas)
    try:
        return np.broadcast_shapes(np.shape(omegas), stack)
    except ValueError:
        raise ValueError(f"frequencies of shape {np.shape(omegas)} do not pair with a "
                         f"stack of shape {stack}") from None


def check_stable(A: NDArray, tol: float = STABILITY_TOL) -> None:
    """Raise :class:`UnstableModel` unless all eigenvalues sit strictly
    in the left half-plane (marginal modes are rejected as well, since
    their spectral covariances diverge).  ``A`` may be a stack
    ``[..., i, j]``; the first unstable matrix, in stack order, raises.
    A matrix with a non-finite entry (an overflowing coupling, say) is
    unstable, and raises with max_real ``math.nan`` itself, so that two
    such errors' values compare equal (a NaN equals only itself).  Every
    builder's stability goes through here."""
    A = np.asarray(A, dtype=float)
    try:
        max_real = np.linalg.eigvals(A).real.max(axis=-1)
    except np.linalg.LinAlgError:  # LAPACK takes no inf or NaN: those matrices get NaN
        finite = np.isfinite(A).all(axis=(-2, -1))
        if finite.all():
            raise
        eigvals = np.linalg.eigvals(np.where(finite[..., None, None], A, 0.0))
        max_real = np.where(finite, eigvals.real.max(axis=-1), np.nan)

    def error(k: int) -> UnstableModel:
        value = float(np.ravel(max_real)[k])
        return UnstableModel(math.nan if math.isnan(value) else value)

    raise_first((np.logical_not(max_real <= -tol), error))


def _equilibrated(M: NDArray) -> tuple[NDArray, NDArray, NDArray]:
    """(E, r, c): ``M`` after row/column scaling to unit max-modulus rows
    and columns, E = diag(1/r) M diag(1/c).

    Rate hierarchies (gamma orders of magnitude below kappa) inflate the
    raw condition number without the matrix being anywhere near an
    undamped resonance; scaling removes that while a genuinely singular
    matrix stays singular (a zero row or column stays zero).  ``M`` may
    be a stack ``[..., i, j]``; a matrix with a NaN entry gives NaN rows
    and columns, without a warning.
    """
    r = np.maximum(np.abs(M).max(-1), _TINY)
    with np.errstate(invalid="ignore"):  # complex division by a NaN scale
        E = M / r[..., :, None]
        c = np.maximum(np.abs(E).max(-2), _TINY)
        E /= c[..., None, :]
    return E, r, c


def _require_regular(M: NDArray, omega: float | NDArray, solved: tuple | None = None,
                     at: tuple | None = None) -> None:
    """Raise :class:`SingularAtFrequency` unless the equilibrated rcond
    of ``M`` (or of every matrix of the stack ``M[..., i, j]``) reaches
    ``RCOND_FLOOR`` (the rcond is that of the SVD; NaN entries count as
    singular).  The first failing matrix, in stack order, raises with its
    frequency: ``omega`` broadcast against the stack.  With ``at`` =
    (rows, cols), ``M[k, ...]`` holds the entries at (rows[k], cols[k]),
    every diagonal position among them, and the rest are zero.

    Without the caller's solve, every matrix goes to the SVD rcond.  With
    it, every matrix first takes a cheaper sufficient test: with E the
    equilibrated matrix, ||E||_2 ||E^-1||_2 <= ||E||_F ||E^-1||_F, so a
    Frobenius bound of at most 1 / (2 ``RCOND_FLOOR``) puts the 2-norm
    rcond at 2 ``RCOND_FLOOR`` or above; the factor 2 covers the rounding
    of the computed inverse (about n eps kappa, 1e-3 of the bound there).
    It runs in real arithmetic on the moduli of the given entries and the
    row and column scales r and c, and E^-1 = diag(c) M^-1 diag(r) comes
    from the solve ``solved`` = (X, h) of X = M^-1 diag(h), X given as
    ``M`` is (with ``at``, h as ``h[j, ...]``).  Only the matrices this
    does not accept (a NaN bound among them) go on to the SVD rcond, so
    the matrices that raise, and their rcond, are the SVD test's alone.
    """
    inverse2 = np.nan  # no solve: every matrix goes to the SVD
    n = M.shape[-1] if at is None else max(at[0]) + 1
    rows, cols, in_row, in_col = _positions(n, at)
    if at is None:  # every entry, in row-major order
        rank = M.ndim - 2
        M = _entries_first(M.reshape(M.shape[:-2] + (n * n,)), rank)
        if solved is not None:
            solved = (_entries_first(solved[0].reshape(M.shape[1:] + (n * n,)), rank),
                      _entries_first(solved[1], rank))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = np.abs(M)
        r = np.maximum.reduce(e[in_row], initial=_TINY)
        e /= r[rows]
        c = np.maximum.reduce(e[in_col], initial=_TINY)
        e /= c[cols]
        if solved is not None:  # |E^-1_ij| = c_i |X_ij| r_j / h_j
            inverse = np.abs(solved[0]) * c[rows] * (r / solved[1])[cols]
            inverse2 = np.einsum("k...,k...->...", inverse, inverse)
        checked = ~(np.einsum("k...,k...->...", e, e) * inverse2 <= 0.25 / RCOND_FLOOR**2)
    if not checked.any():
        return
    E = np.zeros((np.count_nonzero(checked), n, n), M.dtype)
    E[:, rows, cols] = M[:, checked].T
    E = _equilibrated(E)[0]
    E[~np.isfinite(E).all(axis=(-2, -1))] = 0.0  # singular: the SVD does not converge on NaN
    rcond = np.full(checked.shape, np.inf)
    rcond[checked] = 1.0 / np.linalg.cond(E)
    raise_first((~(rcond >= RCOND_FLOOR), lambda k: SingularAtFrequency(
        float(np.broadcast_to(omega, rcond.shape).flat[k]) if np.ndim(omega) else omega,
        float(rcond.flat[k]))))


@functools.cache
def _positions(n: int, at: tuple | None) -> tuple:
    """(rows, cols, in_row, in_col) of the entries at ``at`` (all, row-major,
    if None); column i of in_row (in_col) lists row (column) i's entries."""
    index = np.divmod(np.arange(n * n), n) if at is None else tuple(map(np.array, at))
    groups = [[list(np.flatnonzero(axis == i)) for i in range(n)] for axis in index]
    return index + tuple(np.array([g + g[:1] * (max(map(len, gs)) - len(g)) for g in gs]).T
                         for gs in groups)


def _entries_first(entries: NDArray, rank: int) -> NDArray:
    """The view ``[k, ...]`` of ``entries[..., k]`` with ``rank`` stack axes."""
    if rank == 0 and entries.ndim == 1:  # one point: the entries themselves
        return entries
    entries = entries.reshape((1,) * (rank + 1 - entries.ndim) + entries.shape)
    return entries.transpose((rank, *range(rank)))


def build_scattering(model: LinearModel, omega: float | NDArray,
                     outputs: tuple[int, ...] | None = None) -> NDArray[np.complex128]:
    """Scattering matrix S(w) = -[H (A + iwI)^-1 H + I] for the model, as
    the array ``S[i, j]``: rows are output channels, columns input channels.

    S is square; detection loss acts later, on the output covariance
    (:func:`detected`).  An array of frequencies, or a model stack (A,
    and H when it is a stack), gives the stack ``S[..., i, j]`` from one
    stacked solve; the first singular point, in stack order, raises
    :class:`SingularAtFrequency`.  With ``outputs``, a tuple of output
    channels, only those rows are formed, entries first: ``R[k, j, ...]``
    is ``S[..., outputs[k], j]``, the stack on the last axes (the form
    :func:`cross_spectral_density` reduces).

    A drift that is block lower triangular after a permutation, with
    diagonal blocks of one or two quadratures, is solved by block forward
    substitution (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 13) on the entries X = M^-1 H may hold, M = A + iwI: each
    diagonal block is inverted in closed form, each block row of M is
    scaled by its inverse, N = -D^-1 L, and each level of blocks takes
    X_ij = sum_k N_ik X_kj from the levels above, one vectorized product
    per level.  Every builder's drift is of that kind but the detuned
    imperfect readout's, whose loop X -> p -> x -> Y -> X is one block of
    four.  The guard takes M and X = M^-1 diag(h) at those entries, and
    h (a zero in h leaves the guard no inverse: every matrix goes to the
    SVD rcond).  Any other drift takes LAPACK's solve of X = M^-1 H: with
    no zero in H it hands the guard M^-1 = X diag(1/h); otherwise, or
    when an exactly singular matrix stops that solve, every matrix goes
    to the SVD rcond.  The plan depends on the off-diagonal nonzero entries of the
    drift, so the points of a stack whose off-diagonal entries vanish at
    some points (a coupling of zero) are solved in groups, each as one of
    its points alone.
    """
    n = model.A.shape[-1]
    outputs = None if outputs is None else tuple(outputs)
    nonzero = (model.A != 0) | _diagonal(n)  # the plan reads no diagonal zero
    if nonzero.ndim > 2:
        nonzero = nonzero.reshape(-1, n * n)
        if len(nonzero) > 1 and not (nonzero == nonzero[0]).all():
            return _rows_of(_by_pattern(model, omega), outputs)
        nonzero = nonzero.any(0)
    plan = _substitution(nonzero.tobytes(), n)
    if plan is None:
        return _rows_of(_dense_scattering(model, omega), outputs)
    return _substituted(model, omega, plan, outputs)


def _rows_of(S: NDArray, outputs: tuple[int, ...] | None) -> NDArray:
    """The rows ``outputs`` of the stack ``S[..., i, j]`` entries first, as
    :func:`build_scattering` gives them (all of S, as it is, for None)."""
    return S if outputs is None else np.moveaxis(S[..., list(outputs), :], (-2, -1), (0, 1))


def _substituted(model: LinearModel, omega: float | NDArray, plan: tuple,
                 outputs: tuple[int, ...] | None = None) -> NDArray[np.complex128]:
    """:func:`build_scattering` by the block forward substitution ``plan``
    (of :func:`_substitution`) for X = M^-1 H; the rows ``outputs`` are
    placed straight from the entries."""
    at, (rows, cols), (singles, paired, pairs, n_diagonal, size), h_at, scaled, levels = plan
    A = model.A
    n = A.shape[-1]
    a = A[..., rows, cols]
    points = np.broadcast(a[..., 0], omega).shape
    rank, entries = len(points), len(rows)
    h = _entries_first(model.H.diagonal(0, -2, -1), rank)  # h[j, ...]
    m, x = _work.pair(size, points)  # M, X and N, then the zero that pads the levels
    m[-1] = x[-1] = 0.0  # every other entry is written before it is read
    m[:entries] = _entries_first(a, rank)
    m[:n_diagonal] += 1j * omega
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # singular: inf, NaN
        np.divide(h[h_at[0]], m[singles], out=x[singles])  # X_ii = h_i / M_ii
        (one, diagonal, driven), (two, inverse_at, driving) = scaled
        np.divide(m[driven], -m[diagonal], out=m[one])  # N = -D^-1 L on one-quadrature rows
        if pairs:  # (a, d, b, c) of each block [[a, b], [c, d]], and D^-1
            block = m[paired].reshape((4, pairs) + points)
            det = block[0] * block[1] - block[2] * block[3]
            inverse = x[paired].reshape(block.shape)
            np.divide(block[1::-1], det, out=inverse[:2])
            np.divide(block[2:], -det, out=inverse[2:])
            terms = x[inverse_at] * m[driving]  # D^-1_{i,b} M_{b,k} for both rows b of the block
            np.negative(terms[0] + terms[1], out=m[two])
            x[paired] *= h[h_at[1]]  # D^-1 H
        for at_x, terms, known in levels:  # X_ij = sum_k N_ik X_kj, X_kj of the levels above
            np.multiply(m[terms[0]], x[known[0]], out=x[at_x])
            for t, k in zip(terms[1:], known[1:]):
                x[at_x] += m[t] * x[k]
        _require_regular(m[:entries], omega, (x[:entries], h), at)
        s = x[:entries]
        s *= -h[rows]  # -H X, in place
    s[:n_diagonal] -= 1.0  # less I on the first n_diagonal
    if outputs is not None:
        read, place = _read_entries(at, outputs)
        R = np.zeros((len(outputs), n) + points, complex)
        R[place] = s[read]
        return R
    S = np.zeros(points + (n, n), complex)
    S[..., rows, cols] = s.transpose((*range(1, rank + 1), 0))
    return S


class _WorkArrays(threading.local):
    """One work array per thread, as large as the largest request so far:
    the substitution's M, X and N (:func:`_substituted`), then the
    density's products (:func:`_output_density`), in turn.

    A scan calls both many times on one stack shape (its grid blocks)
    and on a few smaller ones (its lockstep rounds).  New arrays on every
    call had glibc trim the freed ones off the heap and map the pages
    again on the next call; the kept array touches the same pages, and
    a call of any shape takes the front of it.  A larger one comes from
    ``np.zeros``.  The array holds what its last user left there, so a
    caller writes every entry before reading it, and no view of it
    leaves the function that asked for it.
    """

    def __init__(self):
        self.buffer = np.zeros(0, complex)

    def pair(self, rows: int, points: tuple[int, ...]) -> NDArray[np.complex128]:
        """Two complex work arrays of shape (rows,) + ``points``, as one."""
        size = 2 * rows * math.prod(points)
        if len(self.buffer) < size:
            self.buffer = np.zeros(size, complex)
        return self.buffer[:size].reshape((2, rows) + points)


_work = _WorkArrays()


def _dense_scattering(model: LinearModel, omega: float | NDArray) -> NDArray[np.complex128]:
    """:func:`build_scattering` by LAPACK's solve, for any drift."""
    eye = np.eye(model.A.shape[-1])
    M = model.A + 1j * np.asarray(omega)[..., None, None] * eye
    H = model.H.astype(complex)  # cast once: numpy casts a real operand slowly (same bits)
    h = np.diagonal(model.H, 0, -2, -1)
    try:
        X = np.linalg.solve(M, H) if h.all() else None
    except np.linalg.LinAlgError:
        X = None
    _require_regular(M, omega, None if X is None else (X, h))
    return -(h[..., :, None] * (np.linalg.solve(M, H) if X is None else X) + eye)  # H X


def _by_pattern(model: LinearModel, omega: float | NDArray) -> NDArray[np.complex128]:
    """:func:`build_scattering` of a stack whose drifts have their
    off-diagonal nonzero entries at different positions (a coupling that is
    zero at some points): each group of points that share them is solved
    by :func:`build_scattering`, as one of its points is alone.  When a group's guard raises, one
    guard over the whole stack raises the error of its first singular
    point; should it pass, the first group's error stands."""
    n = model.A.shape[-1]
    points = np.broadcast_shapes(np.shape(omega), model.A.shape[:-2])
    A, H = (np.broadcast_to(X, points + (n, n)).reshape(-1, n, n) for X in (model.A, model.H))
    omega = np.broadcast_to(omega, points).ravel()
    nonzero = ((A != 0) | _diagonal(n)).reshape(-1, n * n)
    left = np.ones(len(A), bool)
    S = np.empty(A.shape, complex)
    first_error = None
    while left.any():
        pattern = nonzero[np.argmax(left)]
        points_of = (nonzero == pattern).all(1)
        left &= ~points_of
        part = object.__new__(LinearModel)  # the points of one pattern, validated with the stack
        vars(part).update(vars(model), A=A[points_of], H=H[points_of])
        try:
            S[points_of] = build_scattering(part, omega[points_of])
        except SingularAtFrequency as err:
            first_error = first_error or err
    if first_error is not None:
        _require_regular(A + 1j * omega[:, None, None] * np.eye(n), omega)
        raise first_error
    return S.reshape(points + (n, n))


@functools.cache
def _read_entries(at: tuple, outputs: tuple[int, ...]) -> tuple:
    """(read, place): the entries of a plan's ``at`` that lie in the rows
    ``outputs``, and their (row among ``outputs``, column) in R[k, j]."""
    read = [t for t, i in enumerate(at[0]) if i in outputs]
    return np.array(read, int), (np.array([outputs.index(at[0][t]) for t in read], int),
                                 np.array([at[1][t] for t in read], int))


@functools.cache
def _diagonal(n: int) -> NDArray[np.bool_]:
    """The n x n boolean identity, shared and read-only."""
    eye = np.eye(n, dtype=bool)
    eye.setflags(write=False)
    return eye


def _blocks(drives: NDArray[np.bool_]) -> tuple[NDArray[np.bool_], NDArray[np.bool_]]:
    """(reach, same) of the n x n pattern ``drives`` of a drift's nonzero
    entries, its diagonal set: reach[i, j] when j drives i through a chain
    of entries, and same[i, j] when i and j also drive each other, which
    puts them in one diagonal block of the drift's block triangular form."""
    reach = drives.copy()
    for k in range(len(reach)):
        reach |= reach[:, k, None] & reach[k]
    return reach, reach & reach.T


def _spectrum_depends_on(A: NDArray, entries: tuple) -> bool:
    """Whether the eigenvalues of a drift with the nonzero entries of ``A``
    (of any matrix of a stack) can depend on the values at ``entries`` =
    (rows, columns): whether, with those entries nonzero, one of them lies
    inside a diagonal block of the block triangular form (the blocks of
    :func:`_substitution`).  If none does, the eigenvalues are those of
    the diagonal blocks, whatever the entries hold."""
    n = A.shape[-1]
    drives = (A != 0).reshape(-1, n, n).any(0) | _diagonal(n)
    drives[entries] = True
    return bool(_blocks(drives)[1][entries].any())


@functools.cache
def _substitution(pattern: bytes, n: int) -> tuple | None:
    """The block forward substitution of :func:`build_scattering` for the
    n x n matrices M whose off-diagonal nonzero entries lie in ``pattern``
    (the bytes of an n x n boolean array), or None when a diagonal block
    of M, a set of quadratures that drive each other, has more than two.

    The plan is (at, index, sizes, h_at, scaled, levels).  X = M^-1 H may
    be nonzero at (i, j) when j drives i through a chain of entries; ``at``
    lists those positions (``index`` as an array) in this order: the
    one-quadrature blocks, then (a, d, b, c) of the two-quadrature blocks
    [[a, b], [c, d]], then the rest of the block rows, level by level (a
    block's level is one more than the highest of the blocks that drive
    it).  ``sizes`` = (singles, paired, pairs, n_diagonal, size): the
    slices of the two kinds of diagonal blocks, the number of pairs, the
    number of diagonal positions of M (they come first) and the length of
    the work arrays.  ``h_at`` picks h_i for X_ii = h_i / M_ii and h_j for
    D^-1 H on the pairs.  ``scaled`` places N = -D^-1 L (D the diagonal
    blocks of M, L the rest) after X: (slice, M_ii, M_ik) for the
    one-quadrature rows, N_ik = -M_ik / M_ii, and (slice, D^-1 at both
    columns of the block, M at both rows) for the others.  A level is
    (slice, terms, known): X_ij = sum_k N_ik X_kj, the sum over the rows
    of N at ``terms`` times X at ``known``, padded with the zero at the
    end of the work arrays.
    """
    drives = np.frombuffer(pattern, bool).reshape(n, n) | _diagonal(n)
    reach, same = _blocks(drives)
    if same.sum(1).max() > 2:
        return None
    blocks = []  # in dependency order: the blocks feeding a block reach fewer quadratures
    for i in sorted(range(n), key=lambda i: (np.count_nonzero(reach[i]), i)):
        if (block := tuple(np.flatnonzero(same[i]).tolist())) not in blocks:
            blocks.append(block)
    level, feeds = {}, {}
    for block in blocks:
        feeds[block] = [k for k in range(n) if k not in block and drives[block, k].any()]
        level[block] = 1 + max((level[b] for b in blocks if set(b) & set(feeds[block])),
                               default=-1)
    block_of = {i: b for b in blocks for i in b}
    pairs = [b for b in blocks if len(b) == 2]
    at = [(i, i) for (i,) in (b for b in blocks if len(b) == 1)]
    singles = len(at)
    at += [(i, i) for i, _ in pairs] + [(j, j) for _, j in pairs]
    at += [(i, j) for i, j in pairs] + [(j, i) for i, j in pairs]
    for depth in range(1, max(level.values()) + 1):
        at += [(i, j) for b in blocks if level[b] == depth for i in b
               for j in range(n) if reach[i, j] and not same[i, j]]
    pos = {ij: k for k, ij in enumerate(at)}
    one, two = ([(i, k) for b in blocks if len(b) == size for i in b for k in feeds[b]]
                for size in (1, 2))
    pos |= {("N", *ik): len(at) + t for t, ik in enumerate(one + two)}
    zero = len(pos)
    scaled = ((slice(len(at), len(at) + len(one)), np.array([pos[i, i] for i, _ in one], int),
               np.array([pos[ik] for ik in one], int)),
              (slice(len(at) + len(one), zero),
               np.array([[pos[i, block_of[i][r]] for i, _ in two] for r in (0, 1)], int),
               np.array([[pos[block_of[i][r], k] for i, k in two] for r in (0, 1)], int)))
    levels = []
    for depth in range(1, max(level.values()) + 1):
        rows = [t for t in range(singles + 4 * len(pairs), len(at))
                if level[block_of[at[t][0]]] == depth]
        terms = [[(pos["N", i, k], pos[k, j]) for k in feeds[block_of[i]] if reach[k, j]]
                 for i, j in (at[t] for t in rows)]
        width = max(map(len, terms))
        terms = np.array([t + [(zero, zero)] * (width - len(t)) for t in terms], int)
        levels.append((slice(rows[0], rows[-1] + 1), *map(tuple, terms.transpose(2, 1, 0))))
    index = np.array(at).T
    paired = slice(singles, singles + 4 * len(pairs))
    sizes = (slice(0, singles), paired, len(pairs), singles + 2 * len(pairs), zero + 1)
    h_at = (index[0, :singles], index[1, paired])
    return tuple(map(tuple, index.tolist())), index, sizes, h_at, scaled, tuple(levels)


def input_covariance(bath: BathSpec, layout: ModeLayout) -> NDArray[np.float64]:
    """Input covariance: (n_c + 1/2) I_2 per optical mode and the
    thermal-squeezed block per mechanical mode."""
    return _input_covariance(bath, layout).copy()


@functools.lru_cache(maxsize=16)
def _input_covariance(bath: BathSpec, layout: ModeLayout) -> NDArray[np.float64]:
    """:func:`input_covariance`, built once per bath and layout (a sweep
    builds many models on one bath)."""
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
    frequency.  ``S`` may be a stack ``[..., i, j]``; each point has the
    bits of its own call (see :func:`_output_density`).
    """
    return _output_density((np.moveaxis(S, (-2, -1), (0, 1)),), Vin)


def _output_density(blocks, Vin: NDArray) -> NDArray[np.complex128]:
    """Cross-spectral density of the rows ``R[i, j, ...]`` of several
    scattering maps ``blocks`` (the sidebands of a periodic drift add
    incoherently), as ``V[..., i, k]`` stored entries first.

    U = R V_in sums over the nonzero entries of ``Vin`` (shared, or a
    stack ``[..., j, l]``), the diagonal first; the upper triangle
    V_ik = sum_l U_il R_kl^* adds one l at a time, block after block, its
    conjugate fills the lower one and the diagonal keeps its real part.
    All of it is elementwise, so each point has the bits of its own call.
    """
    r, n, rank = blocks[0].shape[0], Vin.shape[-1], blocks[0].ndim - 2
    shared = Vin.ndim == 2  # planned on its values, a stack on its nonzero entries
    key = Vin if shared else (Vin != 0).reshape(-1, n * n).any(0).astype(float)
    off, x_at, y_at, upper, lower, diagonal = _density_terms(key.tobytes(), r, n)
    if not shared:
        diagonal = _entries_first(np.diagonal(Vin, 0, -2, -1), rank)
    elif rank:
        diagonal = diagonal.reshape((n,) + (1,) * rank)
    V = None
    for R in blocks:
        U = R * diagonal
        for j, l in off:
            U[:, l] += R[:, j] * Vin[..., j, l]
        if R.shape != U.shape:  # a V_in stack with axes of its own
            R = np.broadcast_to(R, U.shape)
        points = U.shape[2:]
        terms, conjugate = _work.pair(len(x_at), points)  # [(l, (i, k)), ...]
        U.reshape((r * n,) + points).take(x_at, 0, terms, "clip")  # "raise" buffers out
        R.reshape((r * n,) + points).take(y_at, 0, conjugate, "clip")
        terms *= np.conjugate(conjugate, out=conjugate)
        for term in terms.reshape((len(x_at) // len(upper), len(upper)) + points):
            if V is None:
                V = term.copy()
            else:
                V += term
    density = np.empty((r * r,) + V.shape[1:], complex)
    density[lower] = np.conj(V)
    density[upper] = V
    density[:: r + 1].imag = 0.0
    return density.reshape((r, r) + V.shape[1:]).transpose((*range(2, rank + 2), 0, 1))


@functools.lru_cache(maxsize=64)
def _density_terms(vin: bytes, r: int, n: int) -> tuple:
    """(off, x_at, y_at, upper, lower, diagonal) of :func:`_output_density`
    for r rows and the n x n V_in of bytes ``vin`` (of a stack: ones at its
    nonzero entries): ``off`` the nonzero (j, l) off the diagonal, and
    term (l, (i, k)) at the flat entries i n + l of U and k n + l of R^*,
    over the columns l of V_in and the upper pairs (i, k), whose flat
    positions are i r + k (``upper``) and k r + i (``lower``)."""
    W = np.frombuffer(vin).reshape(n, n)
    off = [(j, l) for j, l in zip(*np.nonzero(W)) if j != l]
    i, k = np.triu_indices(r)
    l = np.flatnonzero(W.any(0))[:, None]
    return off, (i * n + l).ravel(), (k * n + l).ravel(), i * r + k, k * r + i, W.diagonal()


def detected(V: NDArray, rows: slice | NDArray, eta: float, noise: float) -> NDArray:
    """Output covariance ``V`` as seen by detectors of efficiency ``eta``
    on the measured quadratures ``rows``.

    Each detector sits behind a beam splitter of transmission eta whose
    open port admits uncorrelated noise of variance ``noise`` (Clerk et
    al., Rev. Mod. Phys. 82, 1155 (2010)): the rows and columns ``rows``
    (a slice or an array of indices) scale by sqrt(eta), and (1 - eta)
    ``noise`` adds to their diagonal.
    The signal power gain of a detected quadrature scales by eta.  ``V``
    is a Hermitian or real covariance, or a stack ``[..., i, j]``; at
    eta = 1 it is returned itself, otherwise a new array in the same
    memory order.
    """
    if eta == 1.0:
        return V
    V = V.copy(order="K")
    V[..., rows, :] *= np.sqrt(eta)
    V[..., :, rows] *= np.sqrt(eta)
    measured = np.arange(V.shape[-1])[rows]
    V[..., measured, measured] += (1.0 - eta) * noise
    return V
