"""The scenario registry: the CLI's parameter conventions as a library table."""

import numpy as np
import pytest

from tvmeter import SCENARIOS, BathSpec, nu_model_closed_metrics, with_parameter
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
    # vc is set exactly where the figures take parameter stacks ...
    assert {name for name, s in SCENARIOS.items() if s.vc is not None} == {
        name for name, s in SCENARIOS.items() if _figures_take_stacks(s)
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
