"""The scenario registry: the CLI's parameter conventions as a library table."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvmeter import (
    SCENARIOS,
    BathSpec,
    DegenerateMeter,
    TvmeterError,
    UnstableModel,
    check_stable,
    cooperativity_to_g,
    models,
    nu_model_closed_metrics,
    scenarios,
    with_parameter,
)
from tvmeter.cli import main


def test_figures_apply_the_unit_conventions():
    # nu is given in units of gamma
    qnd = SCENARIOS["qnd-imperfect"]
    params = with_parameter(with_parameter(qnd.defaults, "nu", 0.1), "C", 0.3)
    bath = BathSpec(n_m=1.0)
    figs = qnd.figures(params, bath, qnd.default_omega(params))
    want = nu_model_closed_metrics(0.3, 0.1 * params["gamma"], params["gamma"], bath)
    for name in ("Vc", "Ts", "Tm"):
        assert getattr(figs, name) == pytest.approx(getattr(want, name), rel=1e-9)


def test_figures_equal_the_cli_row(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["sweep", "--scenario", "cqnc", "--param", "C", "--log", "0.5", "2", "--n", "2",
                 "--n-m", "1", "--conditioning", "meter+ancilla", "--output", str(out)]) == 0
    header, row = [l for l in out.read_text().splitlines() if not l.startswith("#")][:2]
    cqnc = SCENARIOS["cqnc"]
    params = with_parameter(cqnc.defaults, "C", 0.5)
    figs = cqnc.figures(params, BathSpec(n_m=1.0), cqnc.default_omega(params), "meter+ancilla")
    assert dict(zip(header.split(","), row.split(",")))["Vc"] == format(figs.Vc, ".17g")


def test_c_and_g_replace_each_other():
    params = SCENARIOS["displacement"].defaults
    assert with_parameter(params, "g", 0.1)["C"] is None
    assert with_parameter(with_parameter(params, "g", 0.1), "C", 2.0)["g"] is None
    # without a cooperativity g is an ordinary parameter
    assert "C" not in with_parameter(SCENARIOS["lev-single"].defaults, "g", 0.1)


def test_defaults_are_read_only():
    with pytest.raises(TypeError):
        SCENARIOS["qnd-ideal"].defaults["C"] = 2.0


def _figures_take_stacks(scenario) -> bool:
    gamma = scenario.defaults["gamma"]
    params = with_parameter(scenario.defaults, "gamma", gamma * np.array([1.0, 2.0]))
    omega = scenario.default_omega(params) if scenario.default_omega else None
    try:
        figs = scenario.figures(params, BathSpec(n_m=1.0), omega)
    except ValueError:
        return False
    return isinstance(figs, list) and len(figs) == 2


def test_only_cooperativity_scenarios_scan_c(capsys):
    # every scenario's figures take parameter stacks, and vc is set exactly
    # where there is a detection frequency to scan ...
    assert all(_figures_take_stacks(s) for s in SCENARIOS.values())
    assert {name for name, s in SCENARIOS.items() if s.vc is not None} == {
        name for name, s in SCENARIOS.items() if s.default_omega is not None
    }
    # ... and the SQL scan still needs a cooperativity, which lev-single lacks
    assert SCENARIOS["lev-single"].vc is not None
    assert main(["sql", "--scenario", "lev-single", "--n-m", "1"]) == 2
    assert "scenario 'lev-single' has no cooperativity 'C'" in capsys.readouterr().err


ETAS = np.linspace(1.0, 0.0, 25)


@pytest.mark.parametrize("name, conditioning", [
    (name, conditioning) for name, s in SCENARIOS.items() for conditioning in s.conditionings
])
def test_vc_does_not_decrease_as_eta_drops(name, conditioning):
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    omega = scenario.default_omega(params) if scenario.default_omega else None
    vcs = np.array([
        scenario.figures(params, BathSpec(n_m=1.0, n_c=0.2, eta=eta), omega, conditioning).Vc
        for eta in ETAS
    ])
    assert np.all(np.diff(vcs) >= -1e-12 * vcs[:-1]), vcs
    assert vcs[-1] > vcs[0]


#: (scenario, conditioning) of the generated models of the eta property
ETA_CASES = [("displacement", "meter"), ("cqnc", "meter"), ("cqnc", "meter+ancilla"),
             ("qnd-ideal", "meter"), ("qnd-imperfect", "meter"), ("qnd-floquet", "meter"),
             ("lev-single", "meter")]


@st.composite
def _eta_models(draw):
    """(scenario, params, conditioning) of a generated model: rates, the
    cooperativity and the imperfections (in the registry's units) drawn."""
    name, conditioning = draw(st.sampled_from(ETA_CASES))
    params = dict(SCENARIOS[name].defaults, kappa=draw(st.floats(1e-2, 1e2)),
                  gamma=draw(st.floats(1e-4, 1.0)))
    ranges = dict(C=(1e-3, 1e4), omega_m=(0.1, 10.0), nu=(-0.4, 0.4), mu=(-0.4, 0.4),
                  xi=(-0.4, 0.4), alpha=(0.01, 0.5))
    if name == "lev-single":  # its coupling is g; elsewhere g stays None beside C
        ranges["g"] = (0.01, 0.5)
    params.update({k: draw(st.floats(*r)) for k, r in ranges.items() if k in params})
    if name == "qnd-imperfect":
        params["delta_c"] = draw(st.just(0.0) | st.floats(-0.3, 0.3))
    return SCENARIOS[name], params, conditioning


@settings(max_examples=60)
@given(model=_eta_models(), n_m=st.floats(1e-2, 1e3),
       omega=st.just(0.0) | st.floats(1e-2, 10.0),
       etas=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5).map(sorted))
def test_vc_does_not_increase_with_eta_on_generated_models(model, n_m, omega, etas):
    """A more efficient detector never leaves the signal less certain:
    V_c at sorted eta does not increase, to 1e-12 relative; a model that
    fails a guard is skipped."""
    scenario, params, conditioning = model
    try:
        vcs = np.array([scenario.vc(params, BathSpec(n_m=n_m, eta=eta), omega, conditioning)
                        for eta in etas])
    except TvmeterError:
        return
    assert np.all(vcs[1:] <= vcs[:-1] * (1 + 1e-12)), (vcs, etas)


# ---------------------------------------------------------------------------
# C families: the rows built once at g = 0, the coupling written per call


C_SCENARIOS = sorted(name for name, s in SCENARIOS.items() if "C" in s.defaults)

#: per scenario, the parameters a family test draws, and their ranges
FAMILY_RANGES = {
    "displacement": dict(kappa=(0.1, 30.0), gamma=(1e-3, 0.1), omega_m=(0.0, 3.0)),
    "cqnc": dict(kappa=(0.1, 30.0), gamma=(1e-3, 0.1), omega_m=(0.1, 3.0)),
    "qnd-ideal": dict(kappa=(0.1, 30.0), gamma=(1e-3, 0.1)),
    "qnd-imperfect": dict(kappa=(0.1, 30.0), gamma=(1e-3, 0.1), nu=(-0.4, 0.4),
                          mu=(-0.4, 0.4), xi=(-0.45, 0.45), delta_c=(-0.5, 0.5)),
    "qnd-floquet": dict(kappa=(0.05, 3.0), gamma=(1e-3, 0.1), omega_m=(0.2, 3.0),
                        order=(1, 2)),
}

#: cooperativities a family test draws: zero (no coupling) among them
COOPERATIVITIES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


def _outcome(call):
    """("value", shape, bytes) of what ``call()`` returns, or the type and
    text of the error it raises."""
    try:
        value = np.asarray(call())
    except Exception as err:  # noqa: BLE001 - any error is compared
        return type(err), str(err)
    return "value", value.shape, value.dtype, value.tobytes()


def _rows_at(values: dict, ks) -> dict:
    """The parameters (or frequencies) of the rows ks: an array holds one per row."""
    return {k: v[ks] if isinstance(v, np.ndarray) else v for k, v in values.items()}


@st.composite
def _families(draw):
    """(scenario, params, bath, omega, conditioning, rows) of a C family:
    rows is None for a row of numbers, else the rows of a swept parameter."""
    name = draw(st.sampled_from(C_SCENARIOS))
    scenario, ranges = SCENARIOS[name], FAMILY_RANGES[name]
    params = dict(scenario.defaults)
    for key, (lo, hi) in ranges.items():
        if draw(st.booleans()):
            params[key] = (draw(st.integers(lo, hi)) if key == "order"
                           else draw(st.floats(lo, hi)))
    rows = draw(st.none() | st.integers(1, 3))
    if rows is not None:
        key = draw(st.sampled_from(sorted(ranges)))
        lo, hi = ranges[key]
        params[key] = np.array(draw(st.lists(
            st.integers(lo, hi) if key == "order" else st.floats(lo, hi),
            min_size=rows, max_size=rows)), dtype=float)
    bath = BathSpec(n_m=draw(st.floats(0.0, 10.0)), n_c=draw(st.sampled_from([0.0, 0.3])),
                    eta=draw(st.sampled_from([1.0, 0.7])))
    omega = (scenario.default_omega(params) if draw(st.booleans())
             else draw(st.floats(0.0, 3.0)))
    conditioning = draw(st.sampled_from(scenario.conditionings))
    return name, params, bath, omega, conditioning, rows


@settings(max_examples=60)
@given(family=_families(), data=st.data())
def test_family_points_keep_their_bits(family, data):
    """Every point of a C family has the bits, or the error, of
    ``Scenario.vc`` on a model built at its cooperativity: a row's grid
    (an int row), and rows paired with cooperativities (a list)."""
    name, params, bath, omega, conditioning, rows = family
    scenario = SCENARIOS[name]
    vc = scenario.c_family(params, bath, omega, conditioning)

    def built(ks, Cs):
        at = with_parameter(_rows_at(params, ks), "C", np.asarray(Cs))
        return scenario.vc(at, bath, _rows_at({"w": omega}, ks)["w"], conditioning)

    grid = np.array(data.draw(st.lists(COOPERATIVITIES, min_size=1, max_size=5)))
    row = data.draw(st.integers(0, (rows or 1) - 1))
    calls = [(row, grid), (row, float(grid[0]))]
    ks = data.draw(st.lists(st.integers(0, (rows or 1) - 1), min_size=1, max_size=4))
    calls.append((ks, data.draw(st.lists(COOPERATIVITIES, min_size=len(ks), max_size=len(ks)))))
    for ks, Cs in calls:
        assert _outcome(lambda: vc(ks, Cs)) == _outcome(lambda: built(ks, Cs)), (ks, Cs)


def _family_errors(name, params, Cs, omega=0.0):
    """The outcomes of a C family call and of ``Scenario.vc`` at ``Cs``."""
    scenario, bath = SCENARIOS[name], BathSpec(n_m=1.0)
    params = {**scenario.defaults, **params}
    family = scenario.c_family(params, bath, omega)
    with np.errstate(all="ignore"):  # the degenerate meter overflows on its way
        return (_outcome(lambda: family(0, Cs)),
                _outcome(lambda: scenario.vc(with_parameter(params, "C", np.asarray(Cs)),
                                             bath, omega)))


@pytest.mark.parametrize("name, params, Cs, error", [
    ("qnd-imperfect", dict(xi=0.6), [1e-3, 1.0], UnstableModel),  # unstable at every C
    ("qnd-imperfect", dict(nu=0.1, delta_c=0.1), [1e-3, 0.5, 1.0, 1e3], UnstableModel),
    ("qnd-imperfect", dict(nu=0.1, delta_c=0.1, xi=0.6), [1.0, 1e3], UnstableModel),
    ("qnd-floquet", {}, [1.0, 1e104], DegenerateMeter),  # -inf below zero
    ("displacement", {}, [1.0, -2.0, -1.0], ValueError),  # a negative C of a library call
    ("qnd-imperfect", dict(xi=0.6), [1.0, -1.0], ValueError),  # the C check comes first
    ("qnd-imperfect", {}, [1.0, 1e308], UnstableModel),  # an overflowing coupling
    ("qnd-floquet", {}, [1.0, np.inf], UnstableModel),
    ("qnd-floquet", {}, [1.0, 1e250], DegenerateMeter),  # the density overflows: V_c NaN
], ids=["unstable", "unstable-at-some-C", "detuned-unstable-at-g0", "degenerate-meter",
        "negative-C", "negative-C-of-an-unstable-row", "overflow", "infinite-C", "nan-vc"])
def test_family_raises_as_each_build(name, params, Cs, error):
    got, want = _family_errors(name, params, Cs)
    assert got == want
    assert got[0] is error


def test_family_checks_stability_once_where_the_spectrum_cannot_depend_on_c(monkeypatch):
    """The build at g = 0 checks stability once; only the detuned loop
    X -> p -> x -> Y -> X (delta_c and nu nonzero) checks it per call."""
    calls = []
    for module in (models, scenarios):
        monkeypatch.setattr(module, "check_stable", lambda A, check=module.check_stable:
                            calls.append(np.shape(A)) or check(A))
    qnd = SCENARIOS["qnd-imperfect"]
    grid = np.logspace(-3, 3, 50)
    for params, per_call in [({}, False), (dict(nu=0.1, mu=0.2, xi=0.1), False),
                             (dict(delta_c=0.1, mu=0.1), False),
                             (dict(delta_c=0.1, nu=-0.1), True)]:
        calls.clear()
        vc = qnd.c_family({**qnd.defaults, **params}, BathSpec(n_m=1.0), 0.0)
        vc(0, grid)
        vc([0, 0], [0.5, 2.0])
        assert calls == [(4, 4)] + [(50, 4, 4), (2, 4, 4)] * per_call, params


RATES = st.floats(1e-3, 10.0)


@st.composite
def _rated_scans(draw):
    """(scenario, params, Cs) of a linear C scenario on generated rates."""
    name = draw(st.sampled_from(["displacement", "cqnc", "qnd-imperfect"]))
    p = {**SCENARIOS[name].defaults, "kappa": draw(RATES), "gamma": draw(RATES)}
    if name == "qnd-imperfect":
        p.update({k: draw(st.floats(-1.0, 1.0)) for k in ("nu", "mu", "xi", "delta_c")})
    else:
        p["omega_m"] = draw(st.floats(0.1 if name == "cqnc" else 0.0, 10.0))
    Cs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e4)), min_size=1, max_size=8))
    return name, p, Cs


def _drift(name: str, p: dict, C: float) -> np.ndarray:
    """The drift of a linear C scenario at C, written as its builder's literal."""
    k2, g2m, c = p["kappa"] / 2, p["gamma"] / 2, -2 * cooperativity_to_g(C, p["kappa"], p["gamma"])
    if name == "qnd-imperfect":
        dc, nu, mu, xi = p["delta_c"] * p["kappa"], *(p[k] * p["gamma"] for k in ("nu", "mu", "xi"))
        return np.array([[-k2, dc, 0, 0], [-dc, -k2, c, 0], [0, 0, xi - g2m, 2 * nu],
                         [c, 0, -2 * mu, -xi - g2m]])
    wm = p["omega_m"]
    if name == "displacement":
        return np.array([[-k2, 0, 0, 0], [0, -k2, c, 0], [0, 0, -g2m, wm], [c, 0, -wm, -g2m]])
    return np.array([[-k2, 0, 0, 0, 0, 0], [0, -k2, c, 0, c, 0], [0, 0, -g2m, wm, 0, 0],
                     [c, 0, -wm, -g2m, 0, 0], [0, 0, 0, 0, -g2m, -wm], [c, 0, 0, 0, wm, -g2m]])


@settings(max_examples=100)
@given(scan=_rated_scans())
@example(scan=("qnd-imperfect", {**SCENARIOS["qnd-imperfect"].defaults, "nu": 0.1,
                                 "delta_c": 0.1}, [1e-3, 0.1, 1.0, 10.0, 1e3]))
@example(scan=("qnd-imperfect", {**SCENARIOS["qnd-imperfect"].defaults, "xi": 0.6}, [0.0, 1.0]))
def test_stability_decided_once_as_check_stable_at_each_c(scan):
    """A C family raises :class:`UnstableModel` exactly where
    ``check_stable`` of the drift at some C of a call fails, with the text
    and value of the first such C: once per family where the spectrum
    cannot depend on C, per call where it can (the first example is the
    detuned loop, stable at g = 0 and unstable at C = 1)."""
    name, p, Cs = scan
    checks = [_outcome(lambda C=C: check_stable(_drift(name, p, C))) for C in Cs]
    want = next((check for check in checks if check[0] != "value"), None)
    got = _outcome(lambda: SCENARIOS[name].c_family(p, BathSpec(n_m=1.0), 0.3)(0, Cs))
    if want is None:
        assert got[0] is not UnstableModel
    else:
        assert got == want
