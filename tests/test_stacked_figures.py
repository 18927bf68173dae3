"""Stacked figures of merit against one evaluation per point.

Every builder that takes an array of C (or g) gives a model stack.
``evaluate`` and ``floquet_metrics`` on that stack must return, point by
point, the figures of the scalar call on the point's own model: equal
with ``==`` on every field, regime included.  Where the points fail a
guard, the stack raises the error of the first failing point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    ImperfectQndParams,
    TvmeterError,
    cqnc_model,
    decompose_drift,
    displacement_model,
    evaluate,
    floquet_metrics,
    ideal_qnd_model,
    imperfect_qnd_model,
)

KAPPA, GAMMA = 10.0, 0.01

#: scenario -> (builder of the model or drift for a coupling, figures of it)
BUILDERS = {
    "displacement": lambda kw, bath: displacement_model(
        DisplacementParams(KAPPA, GAMMA, 1.0, **kw), bath),
    "qnd-ideal": lambda kw, bath: ideal_qnd_model(KAPPA, GAMMA, bath, **kw),
    "cqnc": lambda kw, bath: cqnc_model(CqncParams(KAPPA, GAMMA, 1.0, **kw), bath),
    "qnd-imperfect": lambda kw, bath: imperfect_qnd_model(ImperfectQndParams(
        KAPPA, GAMMA, delta_c=0.5, mu=0.002, nu=0.001, xi=0.001, **kw), bath),
    "qnd-floquet": lambda kw, bath: decompose_drift(0.5, GAMMA, 1.0, **kw),
}

CASES = [(name, "meter") for name in BUILDERS] + [("cqnc", "meter+ancilla")]


def _figures(scenario, conditioning, kw, bath, omega):
    built = BUILDERS[scenario](kw, bath)
    if scenario == "qnd-floquet":
        return floquet_metrics(built, bath, omega)
    return evaluate(built, omega, bath=bath, conditioning=conditioning)


def _couplings(name):
    bound = 1e4 if name == "C" else 1.0
    value = st.one_of(st.just(0.0), st.floats(0.0, bound))
    return st.lists(value, min_size=1, max_size=8)


@st.composite
def _sweeps(draw):
    coupling = draw(st.sampled_from(["C", "g"]))
    return coupling, draw(_couplings(coupling))


@settings(max_examples=80)
@given(
    case=st.sampled_from(CASES),
    sweep=_sweeps(),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    omega=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
)
def test_stacked_figures_equal_scalar_figures(case, sweep, eta, omega):
    scenario, conditioning = case
    coupling, values = sweep
    bath = BathSpec(n_m=1.0, eta=eta)
    try:
        want = [_figures(scenario, conditioning, {coupling: v}, bath, omega) for v in values]
    except TvmeterError as err:
        with pytest.raises(type(err)) as stacked:
            _figures(scenario, conditioning, {coupling: np.array(values)}, bath, omega)
        assert str(stacked.value) == str(err)
        return
    got = _figures(scenario, conditioning, {coupling: np.array(values)}, bath, omega)
    assert isinstance(got, list) and len(got) == len(values)
    for g, w in zip(got, want):
        assert g == w
        assert g.regime is w.regime
