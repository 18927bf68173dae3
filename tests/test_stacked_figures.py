"""Stacked figures of merit against one evaluation per point.

Every numeric parameter of every builder broadcasts: an array of it
gives a model stack (a drift stack, and an H stack when kappa or gamma
varies).  ``evaluate``, ``floquet_metrics`` and ``reduced_metrics`` on
that stack must return, point by point, the figures of the scalar call
on the point's own model: equal with ``==`` on every field, regime
included.  Where the points fail a guard, the stack raises the error of
the first failing point.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvmeter import (
    BathSpec,
    CqncParams,
    DisplacementParams,
    DualTweezerParams,
    ImperfectQndParams,
    PulsedParams,
    TvmeterError,
    TweezerParams,
    cqnc_model,
    decompose_drift,
    displacement_model,
    evaluate,
    floquet_metrics,
    ideal_qnd_model,
    imperfect_qnd_model,
    reduced_metrics,
    single_tweezer_qnd_model,
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


#: scenario -> (builder of the model or drift from keyword parameters,
#: base parameters, range of each numeric parameter)
PARAMETER_BUILDERS = {
    "displacement": (
        lambda p, bath: displacement_model(DisplacementParams(**p), bath),
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0),
        dict(kappa=(0.1, 100.0), gamma=(1e-4, 1.0), omega_m=(0.0, 5.0), C=(0.0, 1e4),
             g=(-1.0, 1.0)),
    ),
    "qnd-ideal": (
        lambda p, bath: ideal_qnd_model(bath=bath, **p),
        dict(kappa=10.0, gamma=0.01, C=1.0),
        dict(kappa=(0.1, 100.0), gamma=(1e-4, 1.0), C=(0.0, 1e4), g=(-1.0, 1.0)),
    ),
    "cqnc": (
        lambda p, bath: cqnc_model(CqncParams(**p), bath),
        dict(kappa=10.0, gamma=0.01, omega_m=1.0, C=1.0),
        dict(kappa=(0.1, 100.0), gamma=(1e-4, 1.0), omega_m=(0.01, 5.0), C=(0.0, 1e4),
             g=(-1.0, 1.0)),
    ),
    "qnd-imperfect": (
        lambda p, bath: imperfect_qnd_model(ImperfectQndParams(**p), bath),
        dict(kappa=10.0, gamma=0.01, C=1.0, delta_c=0.5, mu=0.002, nu=0.001, xi=0.001),
        dict(kappa=(0.1, 100.0), gamma=(1e-4, 1.0), C=(0.0, 1e4), g=(-1.0, 1.0),
             delta_c=(-1.0, 1.0), mu=(0.0, 0.01), nu=(0.0, 0.01), xi=(-0.005, 0.005)),
    ),
    "qnd-floquet": (
        lambda p, bath: decompose_drift(**p),
        dict(kappa=0.5, gamma=0.01, omega_m=1.0, C=1.0),
        dict(kappa=(0.05, 5.0), gamma=(1e-4, 0.1), omega_m=(0.1, 5.0), C=(0.0, 1e4),
             g=(-1.0, 1.0)),
    ),
    "lev-single": (
        lambda p, bath: single_tweezer_qnd_model(TweezerParams(**p), bath),
        dict(omega_m=100.0, alpha=0.2, g=0.3, kappa=1.0, gamma=1e-6),
        dict(omega_m=(1.0, 200.0), alpha=(0.0, 2.0), g=(-1.0, 1.0), kappa=(0.1, 10.0),
             gamma=(1e-8, 1e-3), Omega=(50.0, 80.0)),
    ),
    # alpha_1 above 2 turns the broadened linewidth negative
    "lev-dual": (
        lambda p, bath: DualTweezerParams(**p),
        dict(omega_m=100.0, gamma=1e-9, kappa_1=1.0, kappa_2=1.0, g_1=0.2, g_2=0.2, alpha_1=0.2,
             alpha_2=0.2),
        dict(omega_m=(1.0, 200.0), gamma=(1e-10, 1e-3), kappa_1=(0.1, 10.0), kappa_2=(0.1, 10.0),
             g_1=(0.0, 1.0), g_2=(0.0, 1.0), alpha_1=(0.0, 3.0), alpha_2=(0.0, 2.0)),
    ),
}

PARAMETER_CASES = [(name, "meter") for name in PARAMETER_BUILDERS] + [("cqnc", "meter+ancilla")]


def _parameter_figures(scenario, conditioning, params, bath, omega):
    build, base, _ = PARAMETER_BUILDERS[scenario]
    if "g" in params and scenario != "lev-single":
        base = {k: v for k, v in base.items() if k != "C"}
    built = build({**base, **params}, bath)
    if scenario == "qnd-floquet":
        return floquet_metrics(built, bath, omega)
    if scenario == "lev-dual":
        return reduced_metrics(built, bath, omega)
    return evaluate(built, omega, bath=bath, conditioning=conditioning)


def _assert_stack_equals_points(scenario, conditioning, stack, bath, omega):
    """The figures of ``stack`` (name -> values) equal those of its points."""
    size = len(next(iter(stack.values())))
    points = [{name: values[k] for name, values in stack.items()} for k in range(size)]
    arrays = {name: np.array(values) for name, values in stack.items()}
    try:
        want = [_parameter_figures(scenario, conditioning, p, bath, omega) for p in points]
    except TvmeterError as err:
        with pytest.raises(type(err)) as stacked:
            _parameter_figures(scenario, conditioning, arrays, bath, omega)
        assert str(stacked.value) == str(err)
        return
    got = _parameter_figures(scenario, conditioning, arrays, bath, omega)
    assert isinstance(got, list) and len(got) == size
    for g, w in zip(got, want):
        assert g == w
        assert g.regime is w.regime


@st.composite
def _parameter_stacks(draw):
    """A case, one or two of its parameters and their values at each point."""
    scenario, conditioning = draw(st.sampled_from(PARAMETER_CASES))
    ranges = PARAMETER_BUILDERS[scenario][2]
    names = draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1, max_size=2, unique=True))
    assume(not {"C", "g"} <= set(names))
    size = draw(st.integers(1, 8))
    return scenario, conditioning, {
        name: draw(st.lists(st.one_of(st.just(ranges[name][0]), st.floats(*ranges[name])),
                            min_size=size, max_size=size))
        for name in names
    }


@settings(max_examples=150)
@given(
    case=_parameter_stacks(),
    eta=st.floats(0.0, 1.0, exclude_min=True),
    omega=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
)
def test_stacked_parameters_equal_scalar_figures(case, eta, omega):
    scenario, conditioning, stack = case
    _assert_stack_equals_points(scenario, conditioning, stack, BathSpec(n_m=1.0, eta=eta), omega)


@pytest.mark.parametrize("scenario", sorted(PARAMETER_BUILDERS))
def test_every_numeric_parameter_stacks(scenario):
    # each parameter alone, at the ends and the middle of its range
    bath = BathSpec(n_m=1.0, eta=0.8)
    for name, (lo, hi) in PARAMETER_BUILDERS[scenario][2].items():
        _assert_stack_equals_points(scenario, "meter", {name: [lo, 0.5 * (lo + hi), hi]},
                                    bath, 0.3)


def test_a_decay_rate_stack_stacks_h():
    bath = BathSpec(n_m=1.0)
    build, base, _ = PARAMETER_BUILDERS["displacement"]
    model = build({**base, "kappa": np.array([1.0, 2.0, 4.0])}, bath)
    assert model.A.shape == model.H.shape == (3, 4, 4)
    assert build({**base, "C": np.array([1.0, 2.0])}, bath).H.shape == (4, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: DisplacementParams(10.0, 0.01, np.array([1.0, -2.0, -3.0]), C=1.0),
     "omega_m must be nonnegative, got -2.0"),
    (lambda: CqncParams(0.0, 0.01, 1.0, C=1.0), "kappa must be positive, got 0.0"),
    (lambda: ImperfectQndParams(10.0, 0.01, C=np.array([1.0, -0.5])).coupling,
     "cooperativity must be nonnegative, got -0.5"),
    (lambda: decompose_drift(0.5, np.array([0.01, 0.0]), 1.0, C=1.0),
     "gamma must be positive, got 0.0"),
    (lambda: decompose_drift(0.5, 0.01, -1.0, C=1.0), "omega_m must be positive, got -1.0"),
    (lambda: TweezerParams(omega_m=100.0, alpha=np.array([0.2, -0.1]), g=0.3, kappa=1.0,
                           gamma=1e-6),
     "alpha must be nonnegative, got -0.1"),
    (lambda: TweezerParams(omega_m=100.0, alpha=0.2, g=0.3, kappa=1.0, gamma=float("nan")),
     "gamma must be positive, got nan"),
    (lambda: DualTweezerParams(omega_m=100.0, gamma=1e-9, kappa_1=1.0, kappa_2=-1.0, g_1=0.2,
                               g_2=0.2, alpha_1=0.2, alpha_2=0.2),
     "kappa_2 must be positive, got -1.0"),
    (lambda: PulsedParams(kappa=1.0, gamma=1e-9, omega_m=100.0, g=0.6, alpha2=0.6, V0=0.0,
                          bath=BathSpec()),
     "V0 must be positive, got 0.0"),
], ids=["displacement", "cqnc", "qnd-imperfect", "floquet-stack", "floquet", "tweezer",
        "tweezer-nan", "dual-tweezer", "pulsed"])
def test_validation_names_the_parameter_and_its_first_failing_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
