"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 05, the generalized SQL of displacement detection.  For a
Gaussian record at detection frequency w, conditioning on the measured
output uses the complex cross-spectral density S(w) V_in S(w)^dagger.
Its real part alone conditions on one sideband quadrature of the record,
and it changes under a pure detector delay, which multiplies the Y row
of S by e^{i phi}: at C = 0.26 and w = omega_m = 1 the real-part V_c
reads 1.0377, 1.4106 and 1.8657 for phi = 0, 0.5 and 1.0, while the
Hermitian form gives 0.99999102 at all three.  With the Hermitian form
the V_c argmin over C is the balance of imprecision and backaction noise
in the measured output, |S_YX| = |S_YY| (Clerk et al., Rev. Mod. Phys.
82, 1155 (2010)), i.e. ``c_sql(kappa, gamma, omega_m, w)``: 0.2600008
here, within the scan tolerance, and likewise for the four parameter
sets of ``tests/test_optimize.py`` (the real-part argmin sat at 0.22647,
12.9% below).  At w = 0, S is real and the two forms agree, so no
QND closed form changes.

Criterion 07, the nu-model crossings.  Three of the six published
crossings are not reproduced: nu/gamma at eta = 1 (0.1179 against
0.125 +/- 0.005), n_m at eta = 1 (1.7049 against 1.81 +/- 0.02) and n_m
at eta = 0.25 (0.3202 against 0.49 +/- 0.02).  All six sit at w = 0,
and the pipeline matches ``nu_model_closed_metrics`` to 1e-9, so the
disagreement is with the published numbers.  Ruled out as the
publication's convention, each with the number it gives:

* Optimizing the detection frequency as well as C (C on [1e-3, 1e3],
  w on [0, 100]).  With the real-part form the optimum stays at w = 0.
  With the Hermitian form, at eta = 1, min V_c < 1/2 everywhere on
  nu/gamma in [0.05, 0.3] (0.4287 at 0.3), so there is no nu crossing;
  at eta = 0.25 the nu crossing moves to 0.187, and neither n_m crossing
  is bracketed on [0.05, 6].  These minima sit on the upper C bound.
* Other bath conventions for the eta = 1 nu crossing (published 0.125):
  V_p = 1/2 (with V_x = 3/2) gives 0.1614, V_x = n_m gives 0.1404 and
  V_x = 2 n_m + 1 gives 0.0875.
* A common offset or factor: at the four published V_c = 1/2 points the
  minimum V_c over C reads 0.5385 (nu/gamma = 0.125, eta = 1), 0.5190
  (nu/gamma = 0.089, eta = 0.25), 0.5145 (n_m = 1.81, eta = 1) and 0.5249
  (n_m = 0.49, eta = 0.25).  At nu/gamma = 1/8, n_m = 1 and eta = 1 the
  closed form reduces to (24 C^2 + 20 C + 3) / (16 C^2 + 60 C + 1), whose
  minimum is exactly 7/13 at C = 2/5.

``PAPER.md`` holds only the title and the abstract, so the
publication's nu-model definitions are not at hand to decide the
convention.  The criterion runs at its stated tolerances and fails.
"""

import json
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_continuous_lyapunov

import tvmeter as tv
from tvmeter.cli import main as cli_main
from tvmeter.pulsed import readout_drift

from conftest import output_covariance

KAPPA, GAMMA, OMEGA_M = 10.0, 0.01, 1.0


def report(num: int, name: str, parts: dict[str, bool]) -> None:
    ok = all(parts.values())
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    for label, good in parts.items():
        if not good:
            print(f"    failed: {label}")
    assert ok, f"criterion {num}: failed parts: {[k for k, v in parts.items() if not v]}"


def ideal_pipeline(C, V_x, eta, n_c):
    bath = tv.BathSpec(n_m=V_x - 0.5, n_c=n_c, eta=eta)
    model = tv.ideal_qnd_model(KAPPA, GAMMA, bath, C=C)
    return tv.evaluate(model, 0.0, bath=bath)


GRID_C = (1e-2, 1e-1, 1.0, 10.0, 1e2)
GRID_VX = (0.5, 1.5, 10.5)


def test_criterion_01_ideal_qnd_cross_oracle():
    worst = 0.0
    for C in GRID_C:
        for V_x in GRID_VX:
            for eta in (1.0, 0.25):
                for n_c in (0.0, 0.5):
                    got = ideal_pipeline(C, V_x, eta, n_c)
                    want = tv.ideal_qnd_metrics(C, V_x, eta, n_c)
                    for g, w in ((got.Vc, want.Vc), (got.Ts, want.Ts), (got.Tm, want.Tm)):
                        worst = max(worst, abs(g - w) / abs(w))
    report(1, "ideal-QND cross-oracle (rel 1e-9)", {f"worst dev {worst:.2e}": worst <= 1e-9})


def test_criterion_02_linear_law():
    worst = 0.0
    for C in GRID_C:
        for V_x in GRID_VX:
            figs = ideal_pipeline(C, V_x, 1.0, 0.0)
            worst = max(worst, abs(figs.Vc + (figs.Ts + figs.Tm - 2.0) * V_x))
    report(2, "linear law Vc = -(Ts+Tm-2)Vx (1e-9)", {f"worst dev {worst:.2e}": worst <= 1e-9})


def test_criterion_03_cooperativity_threshold():
    parts = {}
    for V_x in (1.5, 100.5):
        bath = tv.BathSpec(n_m=V_x - 0.5)

        def vc(C):
            return tv.evaluate(tv.ideal_qnd_model(KAPPA, GAMMA, bath, C=C), 0.0).Vc

        got = tv.find_threshold(vc, 0.5, 1e-6, 1.0, rel_tol=1e-9)
        want = tv.qnd_cooperativity_threshold(V_x)
        parts[f"V_x={V_x}: {got:.8g} vs {want:.8g}"] = abs(got - want) / want <= 1e-6
    report(3, "QND threshold C = (2Vx-1)/(32Vx) (rel 1e-6)", parts)


def test_criterion_04_displacement_classical():
    bath = tv.BathSpec(n_m=1.0)
    bad = 0
    for C in np.logspace(-3, 4, 200):
        model = tv.displacement_model(
            tv.DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), bath
        )
        figs = tv.evaluate(model, OMEGA_M)
        if not (figs.Vc >= 0.5 and figs.Ts + figs.Tm <= 1.0):
            bad += 1
    report(4, "displacement detection classical on 200-pt grid", {f"{bad} violations": bad == 0})


def test_criterion_05_sql():
    bath = tv.BathSpec(n_m=1.0)

    def family(C):
        model = tv.displacement_model(
            tv.DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C), bath
        )
        return tv.evaluate(model, OMEGA_M)

    res = tv.generalized_sql(family, 1e-3, 1e3, count=400)
    approx = tv.c_sql_resonant_approx(KAPPA, OMEGA_M)
    argmin_dev = abs(res.x - approx) / approx
    C_exact = tv.c_sql(KAPPA, GAMMA, OMEGA_M, OMEGA_M)
    model = tv.displacement_model(
        tv.DisplacementParams(KAPPA, GAMMA, OMEGA_M, C=C_exact), bath
    )
    S = tv.build_scattering(model, OMEGA_M)
    balance = abs(abs(S[1, 0]) - abs(S[1, 1]))
    report(5, "SQL: Vc argmin within 5% of 1/4 + (wm/kappa)^2; |S21|=|S22|", {
        f"argmin dev {argmin_dev:.3f} (V_c conditioned on the complex "
        f"cross-spectrum; see module docstring)": argmin_dev <= 0.05,
        f"noise balance dev {balance:.2e}": balance <= 1e-9,
    })


def test_criterion_06_detuning_rescale_and_mu_invariance():
    bath = tv.BathSpec(n_m=1.0)
    worst = 0.0
    for C in (0.1, 1.0, 10.0):
        for dc in (0.0, 0.5, 2.0):
            p = tv.ImperfectQndParams(KAPPA, GAMMA, C=C, delta_c=dc * KAPPA)
            got = tv.evaluate(tv.imperfect_qnd_model(p, bath), 0.0)
            C_eff = tv.detuning_rescaled_cooperativity(C, KAPPA, p.delta_c)
            want = tv.ideal_qnd_metrics(C_eff, 1.5)
            worst = max(
                worst, abs(got.Vc - want.Vc), abs(got.Ts - want.Ts), abs(got.Tm - want.Tm)
            )
        for mu in (0.0, 1.0, 10.0):
            p = tv.ImperfectQndParams(KAPPA, GAMMA, C=C, mu=mu * GAMMA)
            got = tv.evaluate(tv.imperfect_qnd_model(p, bath), 0.0)
            want = tv.ideal_qnd_metrics(C, 1.5)
            worst = max(
                worst, abs(got.Vc - want.Vc), abs(got.Ts - want.Ts), abs(got.Tm - want.Tm)
            )
    report(6, "detuning rescale and mu-invariance (1e-9)", {f"worst dev {worst:.2e}": worst <= 1e-9})


def _nu_sql(nu_over_gamma, n_m, eta):
    bath = tv.BathSpec(n_m=n_m, eta=eta)

    def family(C):
        p = tv.ImperfectQndParams(KAPPA, GAMMA, C=C, nu=nu_over_gamma * GAMMA)
        return tv.evaluate(tv.imperfect_qnd_model(p, bath), 0.0, bath=bath)

    return tv.generalized_sql(family, 1e-3, 1e3, count=200)


def test_criterion_07_nu_model_paper_numbers():
    parts = {}

    def vc_crossing(eta):
        return tv.find_threshold(lambda r: _nu_sql(r, 1.0, eta).value, 0.5, 0.05, 0.3)

    def tsum_crossing(eta):
        return tv.find_threshold(
            lambda r: _nu_sql(r, 1.0, eta).figures.t_sum, 1.0, 0.05, 0.4
        )

    def nm_crossing(eta):
        return tv.find_threshold(lambda n: _nu_sql(0.1, n, eta).value, 0.5, 0.05, 6.0)

    checks = [
        ("nu/gamma Vc=1/2 at eta=1", vc_crossing(1.0), 0.125, 0.005),
        ("nu/gamma Vc=1/2 at eta=0.25", vc_crossing(0.25), 0.089, 0.005),
        ("nu/gamma Tsum=1 at eta=1", tsum_crossing(1.0), 0.14, 0.005),
        ("nu/gamma Tsum=1 at eta=0.25", tsum_crossing(0.25), 0.115, 0.005),
        ("n_m Vc=1/2 at eta=1", nm_crossing(1.0), 1.81, 0.02),
        ("n_m Vc=1/2 at eta=0.25", nm_crossing(0.25), 0.49, 0.02),
    ]
    for label, got, want, tol in checks:
        parts[f"{label}: got {got:.4f}, want {want} +/- {tol}"] = abs(got - want) <= tol
    # three of the six miss; what was ruled out is in the module docstring
    report(7, "nu-model published crossings (three known defects)", parts)


def test_criterion_08_xi_closed_forms():
    bath = tv.BathSpec(n_m=1.0)
    worst = 0.0
    for xi_r in (-0.25, -0.1, 0.1, 0.25):
        for C in (0.05, 1 / 16, 1.0, 30.0):
            p = tv.ImperfectQndParams(KAPPA, GAMMA, C=C, xi=xi_r * GAMMA)
            got = tv.evaluate(tv.imperfect_qnd_model(p, bath), 0.0)
            want = tv.xi_model_closed_metrics(C, xi_r * GAMMA, GAMMA, bath)
            for g, w in ((got.Vc, want.Vc), (got.Ts, want.Ts), (got.Tm, want.Tm)):
                worst = max(worst, abs(g - w) / max(abs(w), 1e-300))
    report(8, "xi closed forms vs pipeline (rel 1e-9)", {f"worst dev {worst:.2e}": worst <= 1e-9})


def test_criterion_09_cqnc():
    bath = tv.BathSpec(n_m=1.0)
    parts = {}
    model = tv.cqnc_model(tv.CqncParams(KAPPA, GAMMA, OMEGA_M, C=3.0), bath)
    rng = np.random.default_rng(2024)
    worst_s21 = max(
        abs(tv.build_scattering(model, w)[1, 0])
        for w in rng.uniform(0.01, 50.0, size=50)
    )
    parts[f"S21 residual {worst_s21:.2e}"] = worst_s21 <= 1e-12
    worst_ratio = 0.0
    for w in (0.3, 1.0, 2.2):
        V = output_covariance(model, w)
        worst_ratio = max(worst_ratio, abs(V[2, 4] / V[2, 5] + 2 * OMEGA_M / GAMMA) / (2 * OMEGA_M / GAMMA))
    parts[f"V35/V36 ratio dev {worst_ratio:.2e}"] = worst_ratio <= 1e-9
    classical = True
    for C in np.logspace(-3, 4, 200):
        m = tv.cqnc_model(tv.CqncParams(KAPPA, GAMMA, OMEGA_M, C=C), bath)
        figs = tv.evaluate(m, OMEGA_M, conditioning="meter+ancilla")
        classical &= figs.regime is tv.Regime.CLASSICAL
    parts["classical at omega_m over C grid"] = classical
    big = tv.cqnc_model(tv.CqncParams(KAPPA, GAMMA, OMEGA_M, C=1e8), bath)
    res = tv.minimize_vc_over_frequency(
        lambda w: tv.evaluate(big, w, conditioning="meter+ancilla"),
        1e-2 * OMEGA_M, 1e3 * OMEGA_M,
    )
    parts[f"freq-optimized C=1e8 regime {res.figures.regime}"] = (
        res.figures.regime is tv.Regime.QND
    )
    report(9, "CQNC: no meter backaction, covariance ratio, regimes", parts)


def test_criterion_10_floquet():
    parts = {}
    bath = tv.BathSpec(n_m=1.0)
    # resolved-sideband limit reproduces the ideal readout
    worst = 0.0
    for C in (0.01, 0.1, 1.0):
        fd = tv.decompose_drift(1e-3 * OMEGA_M, 0.01 * OMEGA_M, OMEGA_M, C=C)
        got = tv.floquet_metrics(fd, bath)
        want = tv.ideal_qnd_metrics(C, 1.5)
        worst = max(worst, abs(got.Vc - want.Vc), abs(got.Ts - want.Ts), abs(got.Tm - want.Tm))
    parts[f"kappa/omega_m=1e-3 vs ideal (abs 1e-4): {worst:.2e}"] = worst <= 1e-4
    # closed forms within 1% in their validity regime gamma << kappa, omega_m
    cold = 1e-5 * OMEGA_M
    worst_rel = 0.0
    for kr in (0.1, 0.5):
        for C in np.logspace(-2, 2, 9):
            fd = tv.decompose_drift(kr * OMEGA_M, cold, OMEGA_M, C=C)
            got = tv.floquet_metrics(fd, bath)
            want = tv.floquet_qnd_metrics_closed(C, kr * OMEGA_M, OMEGA_M, 1.5)
            for g, w in ((got.Vc, want.Vc), (got.Ts, want.Ts), (got.Tm, want.Tm)):
                worst_rel = max(worst_rel, abs(g - w) / abs(w))
    parts[f"closed forms vs pipeline (rel 1e-2): {worst_rel:.2e}"] = worst_rel <= 1e-2
    for kr in (0.1, 0.5):
        found = any(
            tv.floquet_metrics(
                tv.decompose_drift(kr * OMEGA_M, 0.01 * OMEGA_M, OMEGA_M, C=C), bath
            ).regime is tv.Regime.QND
            for C in np.logspace(-2, 2, 40)
        )
        parts[f"QND reachable at kappa/omega_m={kr}"] = found
    report(10, "beyond-RWA truncation", parts)


def test_criterion_11_dual_tweezer():
    parts = {}
    bath = tv.BathSpec(n_m=1e7 - 0.5)

    def params(g1, g2, a1=0.2, a2=0.2):
        return tv.DualTweezerParams(
            omega_m=100.0, gamma=1e-9, kappa_1=1.0, kappa_2=1.0,
            g_1=g1, g_2=g2, alpha_1=a1, alpha_2=a2,
        )

    worst = 0.0
    for g1, g2 in ((0.1, 0.3), (0.2, 0.2), (0.4, 0.05)):
        p = params(g1, g2)
        _, vx, _ = tv.compound_signal_variances(p, bath)
        got = tv.reduced_metrics(p, bath)
        want = tv.dual_tweezer_metrics(p.C_1, p.C_2, 0.2, 0.2, vx)
        for g, w in ((got.Vc, want.Vc), (got.Ts, want.Ts), (got.Tm, want.Tm)):
            worst = max(worst, abs(g - w) / abs(w))
    parts[f"closed forms vs reduced pipeline (rel 1e-9): {worst:.2e}"] = worst <= 1e-9
    above = all(
        tv.reduced_metrics(params(g1, g2), bath).t_sum > 1.0
        for g1 in np.linspace(0.02, 0.6, 8)
        for g2 in np.linspace(0.02, 0.6, 8)
    )
    parts["Ts+Tm > 1 on coupling grid"] = above
    worst_thr = 0.0
    for C1, a1, a2, Vx in ((0.0, 0.2, 0.2, 1e7), (1.0, 0.2, 0.2, 1e7), (10.0, 0.5, 0.2, 10.0)):
        C2 = tv.dual_tweezer_threshold(C1, a1, a2, Vx)
        vxs = tv.threshold_signal_variance(C1, a1, Vx)
        figs = tv.dual_tweezer_metrics(C1, C2, a1, a2, vxs)
        worst_thr = max(worst_thr, abs(figs.Vc - 0.5))
    parts[f"threshold equality gives Vc = 1/2 (1e-9): {worst_thr:.2e}"] = worst_thr <= 1e-9
    # steady-state cross-check in the adiabatic regime
    p = params(0.1, 0.0)
    gm, vx, vp = tv.compound_signal_variances(p, bath)
    A = np.array([
        [-p.kappa_1 / 2, 0, 0, (p.alpha_1 - 2) * p.g_1 / 4],
        [0, -p.kappa_1 / 2, (p.alpha_1 + 2) * p.g_1 / 4, 0],
        [0, (p.alpha_1 - 2) * p.g_1 / 4, -p.gamma / 2, 0],
        [(p.alpha_1 + 2) * p.g_1 / 4, 0, 0, -p.gamma / 2],
    ])
    H = np.diag([np.sqrt(p.kappa_1)] * 2 + [np.sqrt(p.gamma)] * 2)
    Vin = np.diag([0.5, 0.5, bath.V_x, bath.V_p])
    V = solve_continuous_lyapunov(A, -H @ Vin @ H.T)
    dev = max(abs(vx - V[2, 2]) / V[2, 2], abs(vp - V[3, 3]) / V[3, 3])
    parts[f"compound variances vs Lyapunov (rel 1e-2): {dev:.2e}"] = dev <= 1e-2
    report(11, "dual-tweezer readout", parts)


def test_criterion_12_pulsed():
    parts = {}
    bath = tv.BathSpec(n_m=1e7)
    kappa = 1.0
    V0, _ = tv.prepare_state_lyapunov(kappa, 1e-9, 0.6, 0.2, bath)
    p = tv.PulsedParams(
        kappa=kappa, gamma=1e-9, omega_m=100.0, g=0.6, alpha2=0.6, V0=V0, bath=bath
    )
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(0.5, 5.0)
        q = tv.PulsedParams(
            kappa=k, gamma=rng.uniform(1e-4, 0.3) * k, omega_m=rng.uniform(1, 100),
            g=rng.uniform(0, 1) * k, alpha2=rng.uniform(0, 1), V0=1.0, bath=tv.BathSpec(),
        )
        t = rng.uniform(0.0, 10.0 / k)
        worst = max(worst, float(np.max(np.abs(tv.propagator(q, t) - expm(readout_drift(q) * t)))))
    parts[f"propagator vs expm (1e-10): {worst:.2e}"] = worst <= 1e-10
    parts["G(0) = 1"] = tv.measurement_gain(p, 0.0) == 1.0
    worst_g = 0.0
    c1 = p.alpha2 * p.g / (p.kappa - p.gamma)
    for ktau in (0.5, 5.0, 20.0):
        tau = ktau / kappa
        integral, _ = quad(
            lambda s: (c1 * (math.exp(-p.gamma * s / 2) - math.exp(-p.kappa * s / 2))) ** 2,
            0.0, tau,
        )
        G = tv.measurement_gain(p, tau)
        worst_g = max(worst_g, abs(p.kappa * integral - (G - 1.0)) / (G - 1.0))
    parts[f"kappa int M23^2 = G-1 (rel 1e-8): {worst_g:.2e}"] = worst_g <= 1e-8
    figs0 = tv.pulsed_metrics(p, 1e-4 / kappa)
    lim_dev = max(abs(figs0.Ts - 1.0), abs(figs0.Tm), abs(figs0.Vc - V0))
    parts[f"tau->0 limits (1e-3): {lim_dev:.2e}"] = lim_dev <= 1e-3
    from test_pulsed import _ode_covariances

    worst_ode = 0.0
    for ktau in (0.5, 2.0, 5.0, 10.0, 20.0):
        got = np.array(tv.pulsed_covariances(p, ktau / kappa))
        want = np.array(_ode_covariances(p, ktau / kappa))
        worst_ode = max(worst_ode, float(np.max(np.abs(got - want) / np.abs(want))))
    parts[f"covariances vs time-domain ODE (rel 1e-2): {worst_ode:.2e}"] = worst_ode <= 1e-2
    parts[f"prepared V0 = {V0:.3f} < 1/2"] = V0 < 0.5
    qnd = any(
        tv.pulsed_metrics(p, kt / kappa).regime is tv.Regime.QND
        for kt in np.logspace(-1, 2, 30)
    )
    parts["QND window in pulse duration"] = qnd
    report(12, "pulsed readout", parts)


def test_criterion_13_cli_determinism(tmp_path):
    from pathlib import Path

    parts = {}
    recipes = Path(__file__).resolve().parent.parent / "recipes"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(["sweep", "--config", str(recipes / "fig5.json"), "--output", str(a)])
    rc2 = cli_main(["sweep", "--config", str(recipes / "fig5.json"), "--output", str(b)])
    parts["fig5 recipe runs"] = rc1 == 0 and rc2 == 0
    parts["fig5 byte-identical"] = a.read_bytes() == b.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "qnd-ideal", "not_a_key": 1}))
    rc = cli_main(["sweep", "--config", str(bad), "--param", "C",
                   "--log", "0.1", "1", "--n", "3", "--output", str(tmp_path / "c.csv")])
    parts["unknown key exits 2"] = rc == 2
    report(13, "CLI determinism and validation", parts)
