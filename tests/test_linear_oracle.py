"""The linear models against a 40-digit solve.

``_mp_solved`` solves S = -[H (A + iwI)^-1 H + I] for one
:class:`LinearModel` in 40-digit arithmetic, with the float drift,
couplings and input covariance taken as exact, and forms the detected
cross-spectral density S V_in S^dagger from it.  ``_mp_figures`` reduces
that to V_c (conditioned on the meter, or on the meter and the ancilla:
the Schur complement on their block), T_s and T_m.  The float kernel
(:func:`build_scattering`, :func:`cross_spectral_density` and
:func:`evaluate`) must agree to a little above the worst errors measured:
on every builder over a grid of couplings, frequencies and efficiencies,
and on sampled golden rows of the fig2 to fig5 recipes.  A kernel change
that loses digits shows here.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    TweezerParams,
    build_scattering,
    cqnc_model,
    cross_spectral_density,
    detected,
    displacement_model,
    evaluate,
    ideal_qnd_model,
    imperfect_qnd_model,
    single_tweezer_qnd_model,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _mp_solved(model, omega, eta):
    """(S, V): the scattering matrix and the cross-spectral density
    detected at efficiency ``eta`` on the meter mode, as 40-digit mpmath
    matrices."""
    import mpmath as mp

    n = model.A.shape[-1]
    with mp.workdps(40):
        M = mp.matrix([[mp.mpc(model.A[i, j], omega if i == j else 0) for j in range(n)]
                       for i in range(n)])
        H = mp.matrix(model.H.tolist())
        S = -(H * mp.inverse(M) * H + mp.eye(n))
        Vin = mp.matrix(model.Vin.tolist())
        V = S * Vin * S.H
        r0 = 2 * model.meter_mode
        root, noise = mp.sqrt(mp.mpf(eta)), mp.mpf(model.Vin[r0, r0])
        for i in (r0, r0 + 1):
            for j in range(n):
                V[i, j] *= root
                V[j, i] *= root
            V[i, i] += (1 - mp.mpf(eta)) * noise
    return S, V


def _mp_figures(model, omega, eta, conditioning="meter"):
    """(V_c, T_s, T_m) of the model from :func:`_mp_solved`."""
    import mpmath as mp

    S, V = _mp_solved(model, omega, eta)
    layout = model.layout
    s, m = layout.signal_index, layout.meter_index
    with mp.workdps(40):
        if conditioning == "meter":
            Vc = mp.re(V[s, s]) - abs(V[s, m]) ** 2 / mp.re(V[m, m])
        else:
            a = layout.ancilla_index
            block = mp.matrix([[V[m, m], V[m, a]], [V[a, m], V[a, a]]])
            row = mp.matrix([[V[s, m], V[s, a]]])
            Vc = mp.re(V[s, s] - (row * mp.inverse(block) * row.H)[0, 0])
        Vx = mp.mpf(model.Vin[s, s])
        Ts = Vx * abs(S[s, s]) ** 2 / mp.re(V[s, s])
        Tm = Vx * mp.mpf(eta) * abs(S[m, s]) ** 2 / mp.re(V[m, m])
        return np.array([float(Vc), float(Ts), float(Tm)])


def _mp_array(M):
    return np.array([[complex(M[i, j]) for j in range(M.cols)] for i in range(M.rows)])


def _relative(got, want):
    """Largest error of the entries of ``got``, relative to the largest
    entry of ``want`` (a matrix norm: tiny entries take the scale of the
    matrix)."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


#: builder -> (model from a cooperativity and a bath, conditionings, bounds on
#: the relative errors of S, of V (both against their largest entry), and of
#: V_c, T_s and T_m); the worst errors measured are in the comments
BUILDERS = {
    # 1.9e-14, 3.8e-15, 3.0e-13, 1.5e-11 (T_s at C = 1e3, w = 1), 1.2e-15
    "displacement": (lambda C, bath: displacement_model(
        DisplacementParams(10.0, 0.01, 1.0, C=C), bath), ("meter",),
        (5e-14, 1e-14, 1e-12, 3e-11, 3e-15)),
    # 5.6e-16, 4.9e-16, 1.2e-12 (V_c at C = 1e3, w = 0, eta = 0.4), 1.1e-16, 1.1e-15
    "qnd-ideal": (lambda C, bath: ideal_qnd_model(10.0, 0.01, bath, C=C), ("meter",),
                  (2e-15, 2e-15, 3e-12, 2e-15, 3e-15)),
    # 3.6e-13, 6.6e-14, 2.4e-15 (meter) and 2.1e-13 (meter+ancilla), 1.5e-11, 1.4e-15
    "cqnc": (lambda C, bath: cqnc_model(CqncParams(10.0, 0.01, 1.0, C=C), bath),
             ("meter", "meter+ancilla"), (1e-12, 2e-13, 5e-13, 3e-11, 3e-15)),
    # 4.5e-16, 4.9e-16, 3.4e-15, 4.1e-16, 8.6e-16; the detuned cavity-mechanics
    # loop turns unstable near C = 30, so C / 100 stays below
    "qnd-imperfect": (lambda C, bath: imperfect_qnd_model(ImperfectQndParams(
        10.0, 0.01, C=C / 100, delta_c=0.05, mu=0.002, nu=0.001, xi=0.001), bath), ("meter",),
        (2e-15, 2e-15, 1e-14, 2e-15, 3e-15)),
    # 3.7e-16, 6.6e-16, 1.2e-16, 1.1e-16, 9.7e-16
    "lev-single": (lambda C, bath: single_tweezer_qnd_model(TweezerParams(
        omega_m=100.0, alpha=0.2, g=0.1 * np.sqrt(C), kappa=1.0, gamma=1e-6,
        Omega=100.5), bath), ("meter",), (2e-15, 2e-15, 2e-15, 2e-15, 3e-15)),
}

CASES = [(name, c) for name, (_, conditionings, _) in BUILDERS.items() for c in conditionings]


@pytest.mark.parametrize("name, conditioning", CASES)
@pytest.mark.parametrize("omega", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("eta", [1.0, 0.4])
def test_builders_match_the_oracle(name, conditioning, omega, eta):
    build, _, (s_bound, v_bound, *bounds) = BUILDERS[name]
    bath = BathSpec(n_m=1.0, n_c=0.2, m_sq=0.3, eta=eta)
    for C in (1e-3, 0.3, 10.0, 1e3):
        model = build(C, bath)
        S_mp, V_mp = _mp_solved(model, omega, eta)
        S = build_scattering(model, omega)
        r0 = 2 * model.meter_mode
        V = detected(cross_spectral_density(S, model.Vin), slice(r0, r0 + 2), eta,
                     model.Vin[r0, r0])
        assert _relative(S, _mp_array(S_mp)) < s_bound
        assert _relative(V, _mp_array(V_mp)) < v_bound
        figs = evaluate(model, omega, bath, conditioning)
        error = np.abs(np.array([figs.Vc, figs.Ts, figs.Tm])
                       / _mp_figures(model, omega, eta, conditioning) - 1)
        assert (error < bounds).all(), f"C = {C}: errors {error} of V_c, T_s, T_m"


def _golden_rows(name, every):
    with open(GOLDEN / f"{name}.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return rows[::every]


FIG_BATH = BathSpec(n_m=1.0)

#: recipe -> (model at a cooperativity, conditioning, bounds on the relative
#: errors of V_c, T_s and T_m); the comments give the worst errors over every
#: golden row (T_s, formed through n_s_eq = V / G - V_x, loses the most)
RECIPES = {
    # 9.2e-16, 4.4e-12, 7.4e-16
    "fig2": (lambda C: displacement_model(DisplacementParams(10.0, 0.01, 1.0, C=C), FIG_BATH),
             "meter", (2e-15, 1e-11, 2e-15)),
    # 2.1e-14 (C = 5231), 1.7e-11, 6.7e-16
    "fig3": (lambda C: cqnc_model(CqncParams(10.0, 0.01, 1.0, C=C), FIG_BATH), "meter",
             (3e-14, 3e-11, 2e-15)),
    # 3.3e-14 (C = 7.3e7), 4.9e-12, 2.7e-15
    "fig4": (lambda C: cqnc_model(CqncParams(10.0, 0.01, 1.0, C=C), FIG_BATH),
             "meter+ancilla", (5e-14, 1e-11, 5e-15)),
    # 3.3e-13 (C = 757.5, where V_out[x,x] = 972 against V_c = 1.49), 9.7e-16, 9.4e-16
    "fig5": (lambda C: imperfect_qnd_model(ImperfectQndParams(10.0, 0.01, C=C, nu=0.1 * 0.01),
                                           FIG_BATH), "meter", (5e-13, 2e-15, 2e-15)),
}


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_golden_rows_match_the_oracle(name):
    build, conditioning, bounds = RECIPES[name]
    for row in _golden_rows(name, 5):
        C, omega = float(row["C"]), float(row["omega"])
        model = build(C)
        figs = evaluate(model, omega, FIG_BATH, conditioning)
        got = [figs.Vc, figs.Ts, figs.Tm]
        assert got == [float(row[k]) for k in ("Vc", "Ts", "Tm")]
        error = np.abs(np.array(got) / _mp_figures(model, omega, 1.0, conditioning) - 1)
        assert (error < bounds).all(), f"C = {C}: errors {error} of V_c, T_s, T_m"
